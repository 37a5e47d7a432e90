(** miniC→OCaml codegen backend: compiles a prepared program's target
    iteration body (the region {!Commset_runtime.Precompile.run_iteration}
    interprets) to native code via an out-of-tree [.cmxs] build with a
    content-hash cache, and loads it behind the versioned {!Abi}.

    Emission and semantics: {!Emit}. Cache layout, toolchain discovery
    and Dynlink handling: {!Build}. *)

module Precompile = Commset_runtime.Precompile

type compiled = {
  cg_fn : Abi.iter_fn;
      (** drop-in for [run_iteration]: same trap messages, fuel points
          and node-transition sequence, driven through an {!Abi.ctx} *)
  cg_key : string;  (** content-hash cache key (hex MD5) *)
  cg_cache_hit : bool;  (** reused a previously compiled module *)
  cg_compile_s : float;  (** compiler wall seconds (0 on cache hits) *)
  cg_ml_path : string option;  (** generated source on disk, when written *)
}

(** Generated module source for the target body, with {!Emit.key_marker}
    in place of the final key. [nid_of_iid] is the static
    instruction→node map ([-1] = no node) the worker's node transitions
    are compiled from; the real engine passes its action map (-1 for
    every instruction outside a node that holds locks or is
    frontier-ordered), so transitions are compiled in only at action
    boundaries. [Error reason] = uncompilable shape. *)
val source :
  prepared:Precompile.t ->
  rt:Precompile.rtarget ->
  nid_of_iid:(int -> int) ->
  unit ->
  (string, string) result

(** Translate, compile (or hit the cache) and load. [Error reason] is a
    fallback taxonomy string: ["uncompilable body: ..."], ["toolchain
    unavailable: ..."], ["compile failed ..."] or ["load failed ..."];
    the caller degrades to the interpreted real engine and surfaces the
    reason. *)
val prepare :
  prepared:Precompile.t ->
  rt:Precompile.rtarget ->
  nid_of_iid:(int -> int) ->
  unit ->
  (compiled, string) result

(** {2 Cache introspection (tests, CI artifacts)} *)

val key_of_source : string -> string
val cache_dir : unit -> string

(** [(ml, cmxs)] paths for a key. *)
val cache_paths : key:string -> string * string

(** Forget in-process loads so the next {!prepare} exercises the disk
    cache (it cannot un-link loaded modules; keys are content-unique). *)
val reset_memo : unit -> unit
