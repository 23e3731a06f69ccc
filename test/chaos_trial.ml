(* One chaos trial in isolation, on the path [chaos --perfetto] takes:
   [Harness.profile_trial], keeping only the trial record. *)
let run ?spec ?retry ?policy ?crash_ranks ?topology ~workload ~seed ~index () =
  let trial, _, _ =
    Tilelink_chaos.Harness.profile_trial ?spec ?retry ?policy ?crash_ranks
      ?topology ~workload ~seed ~index ()
  in
  trial
