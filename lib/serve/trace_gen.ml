module Chaos = Tilelink_core.Chaos

type request = {
  rq_id : int;
  rq_arrival_us : float;
  rq_prompt : int;
  rq_decode : int;
}

type arrival =
  | Poisson of { rate_rps : float }
  | Bursty of { rate_rps : float; burst : float; on_fraction : float }

(* Exponential inter-arrival draw via inverse CDF; [rate] is per µs. *)
let exponential prng ~rate =
  let u = Chaos.Prng.float prng in
  -.log1p (-.u) /. rate

let us_per_s = 1_000_000.

let length prng ~mean =
  (* Uniform in [1, 2*mean) keeps the mean while exercising short and
     long requests; mean 1 degenerates to the constant 1. *)
  let hi = (2 * mean) - 1 in
  if hi <= 1 then 1 else 1 + (Int64.to_int (Chaos.Prng.next prng) land max_int) mod hi

let validate ~requests arrival =
  if requests <= 0 then invalid_arg "Trace_gen.generate: requests must be > 0";
  match arrival with
  | Poisson { rate_rps } ->
    if rate_rps <= 0. then invalid_arg "Trace_gen.generate: rate must be > 0"
  | Bursty { rate_rps; burst; on_fraction } ->
    if rate_rps <= 0. then invalid_arg "Trace_gen.generate: rate must be > 0";
    if burst < 1. then invalid_arg "Trace_gen.generate: burst must be >= 1";
    if on_fraction <= 0. || on_fraction >= 1. then
      invalid_arg "Trace_gen.generate: on_fraction must be in (0, 1)"

(* Two-state MMPP arrival times.  The ON state arrives at burst * rate;
   the OFF state at the rate that keeps the long-run average equal to
   the nominal rate given the ON duty cycle:
     on_fraction * burst * rate + (1 - on_fraction) * rate_off = rate.
   When the burst factor eats the whole budget (burst >= 1/on_fraction)
   the OFF state is silent and the trace is purely ON-state arrivals. *)
let bursty_times prng ~requests ~rate_rps ~burst ~on_fraction =
  let rate = rate_rps /. us_per_s in
  let rate_on = burst *. rate in
  let rate_off =
    max 0. ((rate -. (on_fraction *. rate_on)) /. (1. -. on_fraction))
  in
  (* Mean state holding times: bursts of ~20 arrivals at the ON rate. *)
  let hold_on = 20. /. rate_on in
  let hold_off = hold_on *. (1. -. on_fraction) /. on_fraction in
  let times = Array.make requests 0. in
  let t = ref 0. and produced = ref 0 in
  let on = ref true in
  let state_end = ref (exponential prng ~rate:(1. /. hold_on)) in
  while !produced < requests do
    let rate_now = if !on then rate_on else rate_off in
    let next_arrival =
      if rate_now <= 0. then infinity else !t +. exponential prng ~rate:rate_now
    in
    if next_arrival <= !state_end then begin
      t := next_arrival;
      times.(!produced) <- !t;
      incr produced
    end
    else begin
      t := !state_end;
      on := not !on;
      let hold = if !on then hold_on else hold_off in
      state_end := !t +. exponential prng ~rate:(1. /. hold)
    end
  done;
  times

let generate ?(prompt_mean = 128) ?(decode_mean = 16) ~seed ~requests arrival =
  if prompt_mean <= 0 || decode_mean <= 0 then
    invalid_arg "Trace_gen.generate: token means must be > 0";
  validate ~requests arrival;
  let arrivals_prng = Chaos.Prng.create ~seed:(Chaos.derive_seed ~seed ~index:0) in
  let lengths_prng = Chaos.Prng.create ~seed:(Chaos.derive_seed ~seed ~index:1) in
  let times =
    match arrival with
    | Poisson { rate_rps } ->
      let rate = rate_rps /. us_per_s in
      let t = ref 0. in
      Array.init requests (fun _ ->
          t := !t +. exponential arrivals_prng ~rate;
          !t)
    | Bursty { rate_rps; burst; on_fraction } ->
      bursty_times arrivals_prng ~requests ~rate_rps ~burst ~on_fraction
  in
  List.init requests (fun i ->
      let rq_prompt = length lengths_prng ~mean:prompt_mean in
      let rq_decode = length lengths_prng ~mean:decode_mean in
      { rq_id = i; rq_arrival_us = times.(i); rq_prompt; rq_decode })

(* CSV traces arrive from whatever tool produced them: Windows editors
   emit CRLF endings and sometimes a UTF-8 BOM, old exports use bare
   CR.  Normalize once up front — CRLF and CR each collapse to a
   single '\n', so line numbers in error messages still match what the
   user's editor shows. *)
let normalize_newlines text =
  let n = String.length text in
  let start =
    if n >= 3 && String.sub text 0 3 = "\xef\xbb\xbf" then 3 else 0
  in
  let buf = Buffer.create (n - start) in
  let i = ref start in
  while !i < n do
    (match text.[!i] with
    | '\r' ->
      Buffer.add_char buf '\n';
      if !i + 1 < n && text.[!i + 1] = '\n' then incr i
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_trace text =
  let lines = String.split_on_char '\n' (normalize_newlines text) in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
      else begin
        match String.split_on_char ',' line |> List.map String.trim with
        | [ a; p; d ] -> begin
          match (float_of_string_opt a, int_of_string_opt p, int_of_string_opt d) with
          | Some arrival, Some prompt, Some decode
            when arrival >= 0. && prompt > 0 && decode > 0 ->
            go (lineno + 1) ((arrival, prompt, decode) :: acc) rest
          | _ ->
            Error
              (Printf.sprintf
                 "trace line %d: expected arrival_us >= 0, prompt > 0, \
                  decode > 0, got %S"
                 lineno line)
        end
        | _ ->
          Error
            (Printf.sprintf
               "trace line %d: expected 'arrival_us,prompt,decode', got %S"
               lineno line)
      end
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok [] -> Error "trace contains no requests"
  | Ok rows ->
    let rows =
      List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) rows
    in
    Ok
      (List.mapi
         (fun i (rq_arrival_us, rq_prompt, rq_decode) ->
           { rq_id = i; rq_arrival_us; rq_prompt; rq_decode })
         rows)

let load_trace path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_trace text
  | exception Sys_error msg -> Error msg
