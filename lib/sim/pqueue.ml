(* Two-level priority queue used by the event loop.

   Entries are ordered by [priority] first and by insertion order
   second, so that events scheduled for the same instant fire in FIFO
   order.  Determinism of the whole simulator rests on this tie-break.

   Symmetric ranks and identical tile costs put many events on the same
   instant, so the queue keeps one FIFO bucket per distinct pending
   priority and a binary min-heap over the buckets only.  A pop takes
   the head of the minimum bucket and touches the heap only when that
   instant drains; a push appends to its bucket, found through an
   open-addressing table keyed by priority, and sifts only when it opens
   a new instant.  Appending in push order gives exactly the (priority,
   insertion sequence) order.  Priorities tie under [=], so [0.0] and
   [-0.0] share a bucket; NaN priorities are not supported.

   Everything lives in arrays of one capacity, a power of two:
   - entries: each pushed priority (unboxed, returned as pushed), its
     payload, and [next], the following entry of its bucket or, for a
     vacant entry, the following vacant entry;
   - buckets: the shared priority [key] and the [head] and [tail]
     entries of the FIFO;
   - [heap] orders the live buckets by [key] in positions [0, buckets);
     positions [buckets] and beyond hold the vacant bucket ids, so
     [heap] is always a permutation of them;
   - [table], twice the capacity, maps a priority's hash to its live
     bucket with linear probing, -1 marking an empty slot.
   Payloads never move once pushed.  A full queue doubles; a caller
   that knows its peak length [reserve]s it once instead.  Beyond that
   a push allocates nothing and a pop ([min_priority] then [take])
   allocates nothing at all. *)

type 'a t = {
  mutable prio : float array;
  mutable payloads : 'a array;
  mutable next : int array;
  mutable vacant : int;
  mutable size : int;
  mutable key : float array;
  mutable head : int array;
  mutable tail : int array;
  mutable heap : int array;
  mutable buckets : int;
  mutable table : int array;
  mutable shift : int;
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
    payloads = [||];
    next = [||];
    vacant = -1;
    size = 0;
    key = [||];
    head = [||];
    tail = [||];
    heap = [||];
    buckets = 0;
    table = [||];
    shift = 63;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Fibonacci hashing of the priority's bits into [table].  Adding [0.0]
   turns [-0.0] into [0.0], so priorities equal under [=] hash alike. *)
let[@inline] hash t p =
  let bits = Int64.bits_of_float (p +. 0.0) in
  Int64.to_int
    (Int64.shift_right_logical (Int64.mul bits 0x9E3779B97F4A7C15L) t.shift)

(* The table slot holding the bucket of priority [p], or the empty slot
   where it belongs. *)
let rec find t p i =
  let b = t.table.(i) in
  if b < 0 || t.key.(b) = p then i
  else find t p ((i + 1) land (Array.length t.table - 1))

(* The table slot of live bucket [b], probing from [i]. *)
let rec slot_of t b i =
  if t.table.(i) = b then i
  else slot_of t b ((i + 1) land (Array.length t.table - 1))

(* Empty slot [hole], then shift back each later bucket of its probe run
   whose home slot allows it, so every live bucket stays reachable from
   its home slot without tombstones. *)
let rec refill t hole j =
  let mask = Array.length t.table - 1 in
  let c = t.table.(j) in
  if c < 0 then t.table.(hole) <- -1
  else if (j - hash t t.key.(c)) land mask >= (j - hole) land mask then begin
    t.table.(hole) <- c;
    refill t j ((j + 1) land mask)
  end
  else refill t hole ((j + 1) land mask)

let unlink t b =
  let i = slot_of t b (hash t t.key.(b)) in
  refill t i ((i + 1) land (Array.length t.table - 1))

(* Move the hole at heap position [i] up past every parent keyed after
   bucket [b], then fill it with [b]. *)
let rec sift_up t i b =
  let parent = (i - 1) / 2 in
  if i > 0 && t.key.(b) < t.key.(t.heap.(parent)) then begin
    t.heap.(i) <- t.heap.(parent);
    sift_up t parent b
  end
  else t.heap.(i) <- b

(* Live keys are distinct, so [<] decides every heap comparison. *)
let[@inline] lt t a b = t.key.(t.heap.(a)) < t.key.(t.heap.(b))

(* Move the hole at [i] down past every child keyed before the bucket
   parked at position [src] (at [buckets], so no comparison reads it as
   a child), then fill the hole from [src]. *)
let rec sift_down t i ~src =
  let l = (2 * i) + 1 in
  let c = if l < t.buckets && lt t l src then l else src in
  let c = if l + 1 < t.buckets && lt t (l + 1) c then l + 1 else c in
  t.heap.(i) <- t.heap.(c);
  if c <> src then sift_down t c ~src

(* Chain entries [lo] and beyond into the vacant list, in front of
   [rest], the vacant chain already there (-1 for none). *)
let vacate_from t lo ~rest =
  let capacity = Array.length t.next in
  for i = lo to capacity - 1 do
    t.next.(i) <- (if i + 1 < capacity then i + 1 else rest)
  done;
  t.vacant <- (if lo < capacity then lo else rest)

(* Grow to the least power of two, at least 16 and at least double the
   capacity, that holds [needed] entries.  The new entries and bucket
   ids join the vacant ones, and the live buckets are rehashed into a
   table of twice the new capacity. *)
let grow t ~needed =
  let capacity = Array.length t.prio in
  let rec fit c = if c >= needed then c else fit (2 * c) in
  let new_capacity = fit (max 16 (2 * capacity)) in
  let extend a fill =
    let b = Array.make new_capacity fill in
    Array.blit a 0 b 0 capacity;
    b
  in
  t.prio <- extend t.prio 0.0;
  t.payloads <- extend t.payloads (dummy ());
  t.next <- extend t.next 0;
  vacate_from t capacity ~rest:t.vacant;
  t.key <- extend t.key 0.0;
  t.head <- extend t.head 0;
  t.tail <- extend t.tail 0;
  t.heap <-
    Array.init new_capacity (fun i -> if i < capacity then t.heap.(i) else i);
  t.table <- Array.make (2 * new_capacity) (-1);
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  t.shift <- 64 - log2 (2 * new_capacity);
  for i = 0 to t.buckets - 1 do
    let b = t.heap.(i) in
    t.table.(find t t.key.(b) (hash t t.key.(b))) <- b
  done

let reserve t n =
  if t.size + n > Array.length t.prio then grow t ~needed:(t.size + n)

let push t priority payload =
  if t.size = Array.length t.prio then grow t ~needed:(t.size + 1);
  let e = t.vacant in
  t.vacant <- t.next.(e);
  t.prio.(e) <- priority;
  t.payloads.(e) <- payload;
  t.next.(e) <- -1;
  t.size <- t.size + 1;
  let i = find t priority (hash t priority) in
  let b = t.table.(i) in
  if b >= 0 then begin
    t.next.(t.tail.(b)) <- e;
    t.tail.(b) <- e
  end
  else begin
    let b = t.heap.(t.buckets) in
    t.table.(i) <- b;
    t.key.(b) <- priority;
    t.head.(b) <- e;
    t.tail.(b) <- e;
    t.buckets <- t.buckets + 1;
    sift_up t (t.buckets - 1) b
  end

let min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  t.prio.(t.head.(t.heap.(0)))

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let b = t.heap.(0) in
  let e = t.head.(b) in
  let top = t.payloads.(e) in
  t.payloads.(e) <- dummy ();
  let after = t.next.(e) in
  t.next.(e) <- t.vacant;
  t.vacant <- e;
  t.size <- t.size - 1;
  if after >= 0 then t.head.(b) <- after
  else begin
    unlink t b;
    let last = t.buckets - 1 in
    t.buckets <- last;
    if last > 0 then sift_down t 0 ~src:last;
    t.heap.(last) <- b
  end;
  top

let clear t =
  Array.fill t.payloads 0 (Array.length t.payloads) (dummy ());
  vacate_from t 0 ~rest:(-1);
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.size <- 0;
  t.buckets <- 0
