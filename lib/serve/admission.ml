type shed_reason = Queue_full | Deadline | Timeout

let shed_reason_to_string = function
  | Queue_full -> "queue_full"
  | Deadline -> "deadline"
  | Timeout -> "timeout"

type t = { q : Trace_gen.request Queue.t; cap : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Admission.create: capacity must be > 0";
  { q = Queue.create (); cap = capacity }

let length t = Queue.length t.q
let pressure t = float_of_int (Queue.length t.q) /. float_of_int t.cap

let offer t r =
  if Queue.length t.q >= t.cap then Error Queue_full
  else begin
    Queue.add r t.q;
    Ok ()
  end

let poll t ~now_us ~ttft_deadline_us ~est_first_token_us =
  match Queue.take_opt t.q with
  | None -> None
  | Some r ->
    if
      now_us +. est_first_token_us
      > r.Trace_gen.rq_arrival_us +. ttft_deadline_us
    then Some (Error (r, Deadline))
    else Some (Ok r)
