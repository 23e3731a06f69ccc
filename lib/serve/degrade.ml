type tier = Overlapped | Shrunk | Nonoverlap

let tier_to_string = function
  | Overlapped -> "overlapped"
  | Shrunk -> "shrunk"
  | Nonoverlap -> "nonoverlap"

let tier_rank = function Overlapped -> 0 | Shrunk -> 1 | Nonoverlap -> 2
let of_rank = function 0 -> Overlapped | 1 -> Shrunk | _ -> Nonoverlap

(* Consecutive low-pressure steps before stepping one tier down. *)
let quiet_steps = 8

type t = {
  mutable current : tier;
  mutable quiet : int;  (** consecutive low-pressure steps *)
  mutable faults : int;  (** consecutive faulted steps *)
  mutable since_us : float;  (** when [current] was entered *)
  times : float array;  (** accumulated µs per tier rank *)
}

let create () =
  {
    current = Overlapped;
    quiet = 0;
    faults = 0;
    since_us = 0.;
    times = Array.make 3 0.;
  }

let tier t = t.current

let max_batch t ~full =
  match t.current with
  | Overlapped -> max 1 full
  | Shrunk | Nonoverlap -> max 1 (full / 2)

let set t ~now_us target =
  t.times.(tier_rank t.current) <-
    t.times.(tier_rank t.current) +. (now_us -. t.since_us);
  t.since_us <- now_us;
  t.current <- target

let observe t ~now_us ~pressure ~faulted =
  if faulted then t.faults <- t.faults + 1 else t.faults <- 0;
  let cur = tier_rank t.current in
  let want =
    if pressure >= 0.9 then 2
    else if pressure >= 0.5 || t.faults >= 2 then min 2 (cur + 1)
    else cur
  in
  if want > cur then begin
    t.quiet <- 0;
    set t ~now_us (of_rank want);
    Some t.current
  end
  else if cur > 0 && pressure < 0.25 && not faulted then begin
    t.quiet <- t.quiet + 1;
    if t.quiet >= quiet_steps then begin
      t.quiet <- 0;
      set t ~now_us (of_rank (cur - 1));
      Some t.current
    end
    else None
  end
  else begin
    t.quiet <- 0;
    None
  end

let finish t ~now_us = set t ~now_us t.current
let time_in t tier = t.times.(tier_rank tier)
