(** Output equivalence between a parallel execution — simulated, run on
    real domains or served — and the sequential reference, refined by
    the effect classification the synchronization engine already
    computed: outputs produced by commset members are the ones the
    annotations declare order-free, so they are compared as multisets,
    while every other output must appear in exactly its sequential
    position (relative to the other non-commutative outputs). This is
    the executable counterpart of the sanitizer's effect classes — and
    strictly stronger than a whole-stream multiset comparison, which
    would forgive an illegal reordering of two ordinary prints. It is
    the one rule the simulator, the engines and the daemon judge
    output by. *)

module Trace = Commset_runtime.Trace
module Sync = Commset_transforms.Sync

type verdict =
  | Exact  (** byte-identical output streams *)
  | Commutative_equal
      (** non-commutative outputs in sequential order; commutative
          outputs equal as multisets *)
  | Mismatch

(** For people: [exact (deterministic)], [multiset-equal], [MISMATCH]. *)
val verdict_to_string : verdict -> string

(** The one machine-readable name every JSON document uses: [exact],
    [multiset-equal], [MISMATCH]. *)
val verdict_name : verdict -> string

(** [commutative_outputs ~sync ~trace] classifies output lines: [true]
    for lines emitted (at least once) by a PDG node belonging to some
    commset under [sync]. With the no-COMMSET sync assignment this
    classifies nothing, so baseline plans are held to exact ordering. *)
val commutative_outputs : sync:Sync.t -> trace:Trace.t -> string -> bool

(** [check ~commutative ~reference ~actual] compares full output
    streams. *)
val check :
  commutative:(string -> bool) -> reference:string list -> actual:string list -> verdict
