(* Bandwidth server: a link that serializes transfers at a fixed rate.

   Each transfer occupies the server for [latency + bytes / rate] and
   transfers are admitted FIFO.  A directed NVLink lane between two
   GPUs, a node NIC, or an HBM port are all instances.  [streams]
   allows a link to carry that many transfers concurrently, each at the
   full per-stream rate (an NVSwitch provides independent lanes per
   peer pair; a NIC usually has [streams = 1]). *)

type t = {
  name : string;
  engine : Engine.t;
  rate : float;          (* bytes per microsecond *)
  latency : float;       (* microseconds *)
  server : Resource.t;
  mutable bytes_moved : float;
  mutable transfer_count : int;
  (* Time-varying rate multiplier, sampled at admission.  Installed by
     fault injection (degradation / outage windows); [None] means the
     link runs at its nominal rate. *)
  mutable throttle : (now:float -> float) option;
}

let create engine ~name ~gbps ~latency_us ?(streams = 1) () =
  if gbps <= 0.0 then invalid_arg "Bandwidth.create: rate must be > 0";
  {
    name;
    engine;
    (* GB/s = 1e9 B / 1e6 µs = 1e3 B/µs *)
    rate = gbps *. 1.0e3;
    latency = latency_us;
    server = Resource.create engine ~name ~capacity:streams;
    bytes_moved = 0.0;
    transfer_count = 0;
    throttle = None;
  }

let set_throttle t f = t.throttle <- Some f
let clear_throttle t = t.throttle <- None

(* Effective rate at admission time.  An outage is modelled as a very
   small multiplier rather than zero so transfers finish eventually and
   the watchdog — not a division by zero — decides what counts as
   stalled. *)
let effective_rate t =
  match t.throttle with
  | None -> t.rate
  | Some f ->
    let m = f ~now:(Engine.now t.engine) in
    t.rate *. Float.max m 1e-6

let bytes_moved t = t.bytes_moved
let transfer_count t = t.transfer_count
let busy_time t = Resource.busy_time t.server

let duration t ~bytes =
  if bytes < 0.0 then invalid_arg "Bandwidth.duration: negative size";
  t.latency +. (bytes /. t.rate)

(* A transfer has three phases: admission to a stream (FIFO), the wire
   time, and the latency.  The stream is held only for the wire time
   (bytes / rate); latency is propagation and overlaps with the next
   transfer's wire time, so back-to-back small messages pipeline
   instead of serializing their latencies. *)
let try_admit t = Resource.try_acquire t.server 1
let admit_later t wake = Resource.enqueue t.server 1 wake
let wire_time t ~bytes = bytes /. effective_rate t

let wire_done t ~bytes =
  t.bytes_moved <- t.bytes_moved +. bytes;
  t.transfer_count <- t.transfer_count + 1;
  Resource.release t.server 1

let latency t = t.latency
