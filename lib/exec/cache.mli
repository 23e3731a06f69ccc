(** Content-addressed evaluation cache.

    Keys are stable fingerprints of (workload id, cluster spec,
    design-space config); values are JSON — schema-tagged scores and
    bounds for the search ([Tune.cache_schema_version]), whole rows for
    the bench harness.  Optionally persists to a
    JSON file so repeated invocations skip already-evaluated points.
    All operations are mutex-protected and safe to call from any
    domain. *)

type t

val fingerprint : string -> string
(** Stable FNV-1a 64-bit hex digest of the descriptor string. *)

val create : ?path:string -> unit -> t
(** With [path], pre-loads entries from the file when it exists
    (corrupt files are ignored) and {!save} writes back to it. *)

val find : t -> string -> Tilelink_obs.Json.t option
(** Lookup; bumps the hit or miss counter. *)

val add : t -> string -> Tilelink_obs.Json.t -> unit

val written : t -> string -> bool
(** Whether {!add} stored [key] since {!create}: the entry was
    computed in this process, not loaded from the backing file.  Does
    not touch the hit or miss counters. *)

val length : t -> int
val hits : t -> int
val misses : t -> int
val path : t -> string option

val save : t -> unit
(** Write all entries to the backing file; no-op without [path]. *)
