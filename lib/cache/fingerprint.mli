(** Canonical structural fingerprints of CTMDP models.

    Two models that describe the same decision process — same states,
    same action sets, same rates and costs — must map to the same
    cache key even when their choice lists or rate lists were built in
    a different order.  The fingerprint therefore encodes a canonical
    form: per state, choices sorted by action label (labels are unique
    within a state by {!Dpm_ctmdp.Model.create} validation); per
    choice, rates sorted by target state with zero rates dropped and
    duplicate targets merged by summation in bit-pattern order.
    Floats enter the encoding as their exact IEEE-754 bits
    ([Int64.bits_of_float]) — no rounding, so a model perturbed in the
    last ulp gets a different key.

    State {e indices} are part of the canonical form on purpose: a
    relabeling of states is a genuinely different model to every
    state-indexed consumer (policies, bias vectors, analytic
    metrics), so it must not collide. *)

val model : Dpm_ctmdp.Model.t -> string
(** The canonical binary encoding of a model.  Equal iff the models are structurally equal up to within-state
    choice/rate ordering. *)

val key : Dpm_ctmdp.Model.t -> string
(** [key m] is the full cache key: a format-version magic, then
    {!model}.  Keys are compared byte-for-byte by the cache, so a
    cache hit is collision-proof — the 64-bit hash below is only a
    diagnostic digest. *)

val key_hash : string -> int64
(** [key_hash (key m) = model_hash m], computed from the key without
    re-encoding the model — the solve pipeline's provenance digest. *)

val model_hash : Dpm_ctmdp.Model.t -> int64
(** The FNV-1a 64-bit hash of [model m] — a compact digest for logs,
    provenance and tests. *)
