(* Binary min-heap priority queue used by the event loop.

   Entries are ordered by [priority] first and by insertion sequence
   second, so that events scheduled for the same instant fire in FIFO
   order.  Determinism of the whole simulator rests on this tie-break.

   The heap is a structure of arrays.  In heap order it keeps each
   entry's priority (unboxed, in a float array), sequence number and
   the slot of [payloads] that holds its payload.  Payloads never move
   once pushed, so a sift moves only floats and ints and never pays the
   write barrier.  Positions [size] and beyond of [slots] hold the
   vacant payload slots, so [slots] is always a permutation of the slot
   indices.  A push allocates nothing beyond amortized growth, and a
   pop ([min_priority] then [take]) allocates nothing at all.  Sifts
   move a hole instead of swapping. *)

type 'a t = {
  mutable prio : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Vacant payload slots hold this shared dummy so popped payloads
   (often closures over whole simulation states) become collectable
   immediately.  A vacant slot is never read; the [Obj.magic] only
   launders the dummy's type, the same trick the stdlib's [Dynarray]
   uses. *)
let dummy () : 'a = Obj.magic ()

let create () =
  {
    prio = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Does heap position [a] order strictly before position [b]?  [lt]
   and [move] run on every level of every sift, so they are inlined. *)
let[@inline] lt t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa < pb || (pa = pb && t.seqs.(a) < t.seqs.(b))

let[@inline] move t ~from ~into =
  t.prio.(into) <- t.prio.(from);
  t.seqs.(into) <- t.seqs.(from);
  t.slots.(into) <- t.slots.(from)

(* Move the hole at [i] up past every parent that (p, s) orders
   before, then fill it with (p, s, slot). *)
let rec sift_up t i p s slot =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && (p < t.prio.(parent) || (p = t.prio.(parent) && s < t.seqs.(parent)))
  then begin
    move t ~from:parent ~into:i;
    sift_up t parent p s slot
  end
  else begin
    t.prio.(i) <- p;
    t.seqs.(i) <- s;
    t.slots.(i) <- slot
  end

(* Move the hole at [i] down past every child that orders before the
   entry parked at position [src] (beyond [size], so no move touches
   it), then fill the hole from [src].  Comparisons read the arrays
   only, so the priority is never boxed. *)
let rec sift_down t i ~src =
  let l = (2 * i) + 1 in
  let c = if l < t.size && lt t l src then l else src in
  let c = if l + 1 < t.size && lt t (l + 1) c then l + 1 else c in
  move t ~from:c ~into:i;
  if c <> src then sift_down t c ~src

(* Only a full heap grows, so every new position gets a new slot. *)
let grow t =
  let capacity = Array.length t.prio in
  if t.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let extend a fill =
      let b = Array.make new_capacity fill in
      Array.blit a 0 b 0 capacity;
      b
    in
    t.prio <- extend t.prio 0.0;
    t.seqs <- extend t.seqs 0;
    t.payloads <- extend t.payloads (dummy ());
    t.slots <-
      Array.init new_capacity (fun i -> if i < capacity then t.slots.(i) else i)
  end

let push t priority payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  let i = t.size in
  let slot = t.slots.(i) in
  t.payloads.(slot) <- payload;
  t.size <- i + 1;
  sift_up t i priority seq slot

let min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  t.prio.(0)

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let slot = t.slots.(0) in
  let top = t.payloads.(slot) in
  t.payloads.(slot) <- dummy ();
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 ~src:last;
  t.slots.(last) <- slot;
  top

let clear t =
  Array.fill t.payloads 0 (Array.length t.payloads) (dummy ());
  t.size <- 0;
  t.next_seq <- 0
