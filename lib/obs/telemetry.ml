(* The telemetry handle instrumented layers thread through.

   One record bundles the aggregate half (metrics), the sequential
   half (journal) and the causal half (spans) so call sites take a
   single optional argument.  Each half has its own enable switch and
   [set_enabled] flips all three.  Instrumentation guards on [active]
   before doing any work, which keeps a fully disabled handle's cost to
   a branch; inside the guard, work that feeds only one half is skipped
   when that half is off. *)

type t = { metrics : Metrics.t; journal : Journal.t; spans : Span.t }

let create ?(enabled = true) ?journal_capacity () =
  {
    metrics = Metrics.create ~enabled ();
    journal = Journal.create ?capacity:journal_capacity ~enabled ();
    spans = Span.create ~enabled ();
  }

(* Callers that read only the spans (search scoring, chaos trials)
   switch the other halves off.  The journal keeps its default ring
   even though it stays empty: with a one-entry ring the major GC ran
   less often per candidate, and a tuning sweep's peak memory rose. *)
let spans_only () =
  let t = create () in
  Metrics.set_enabled t.metrics false;
  Journal.set_enabled t.journal false;
  t

let metrics t = t.metrics
let journal t = t.journal
let spans t = t.spans

let enabled t =
  Metrics.enabled t.metrics || Journal.enabled t.journal
  || Span.enabled t.spans

let set_enabled t flag =
  Metrics.set_enabled t.metrics flag;
  Journal.set_enabled t.journal flag;
  Span.set_enabled t.spans flag

(* [active opt] is the single check instrumented code performs:
   [None] (no telemetry requested) and [Some t] with every half off
   both fall through to the uninstrumented path. *)
let active = function None -> false | Some t -> enabled t
