(** MD5 message digest (RFC 1321). [digest_string] dispatches to the
    stdlib C implementation ([Digest]); [Reference] is the from-scratch
    native-int implementation the test suite cross-checks it against,
    alongside the RFC's test vectors. *)

(** Lowercase hexadecimal digest (32 characters). *)
val digest_string : string -> string

module Reference : sig
  val digest_bytes : Bytes.t -> string
  val digest_string : string -> string
end
