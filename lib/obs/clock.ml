(** Monotonic time source; see the interface. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
