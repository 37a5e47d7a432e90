(** MD5 message digest (RFC 1321).

    The md5sum and potrace workloads call this through the [md5_hex]
    builtin — on the real execution backend it is the hottest builtin
    by far, so [digest_string] dispatches to the stdlib [Digest]
    module (MD5 in C, ~4x the throughput of anything scalar
    OCaml can reach). [Reference] keeps the from-scratch native-int
    implementation; the test suite checks both against the RFC 1321
    vectors and checks that they agree on random inputs, so the fast
    path is never trusted blindly. *)

let digest_string (s : string) : string = Digest.to_hex (Digest.string s)

(** From-scratch RFC 1321 implementation on the native int (OCaml ints
    carry 63 bits, so 32-bit words fit unboxed; every add/rotate masks
    back to 32 bits). Kept as the cross-checking reference for the
    stdlib fast path above. *)
module Reference = struct
  let mask = 0xFFFFFFFF

  let s =
    [|
      7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
      5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
      4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
      6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
    |]

  (* K[i] = floor(2^32 × abs(sin(i + 1))) — fits the masked native int. *)
  let k =
    Array.init 64 (fun i ->
        int_of_float (abs_float (sin (float_of_int (i + 1))) *. 4294967296.0) land mask)

  let rotl32 x c = ((x lsl c) lor (x lsr (32 - c))) land mask

  type ctx = {
    mutable a : int;
    mutable b : int;
    mutable c : int;
    mutable d : int;
    m : int array;  (** the current chunk's 16 little-endian words *)
  }

  let init () =
    { a = 0x67452301; b = 0xefcdab89; c = 0x98badcfe; d = 0x10325476; m = Array.make 16 0 }

  (* process one 64-byte chunk starting at [off] *)
  let process_chunk ctx (msg : Bytes.t) off =
    let m = ctx.m in
    for j = 0 to 15 do
      let base = off + (j * 4) in
      let byte i = Char.code (Bytes.unsafe_get msg (base + i)) in
      Array.unsafe_set m j
        (byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))
    done;
    let a = ref ctx.a and b = ref ctx.b and c = ref ctx.c and d = ref ctx.d in
    (* the four 16-round families unrolled — no tuple per round *)
    for i = 0 to 15 do
      let f =
        (((!b land !c) lor (lnot !b land !d land mask))
        + !a + Array.unsafe_get k i + Array.unsafe_get m i)
        land mask
      in
      a := !d;
      d := !c;
      c := !b;
      b := (!b + rotl32 f (Array.unsafe_get s i)) land mask
    done;
    for i = 16 to 31 do
      let f =
        (((!d land !b) lor (lnot !d land !c land mask))
        + !a + Array.unsafe_get k i
        + Array.unsafe_get m (((5 * i) + 1) land 15))
        land mask
      in
      a := !d;
      d := !c;
      c := !b;
      b := (!b + rotl32 f (Array.unsafe_get s i)) land mask
    done;
    for i = 32 to 47 do
      let f =
        ((!b lxor !c lxor !d) + !a + Array.unsafe_get k i
        + Array.unsafe_get m (((3 * i) + 5) land 15))
        land mask
      in
      a := !d;
      d := !c;
      c := !b;
      b := (!b + rotl32 f (Array.unsafe_get s i)) land mask
    done;
    for i = 48 to 63 do
      let f =
        ((!c lxor ((!b lor (lnot !d land mask)) land mask))
        + !a + Array.unsafe_get k i
        + Array.unsafe_get m ((7 * i) land 15))
        land mask
      in
      a := !d;
      d := !c;
      c := !b;
      b := (!b + rotl32 f (Array.unsafe_get s i)) land mask
    done;
    ctx.a <- (ctx.a + !a) land mask;
    ctx.b <- (ctx.b + !b) land mask;
    ctx.c <- (ctx.c + !c) land mask;
    ctx.d <- (ctx.d + !d) land mask

  let hex_digits = "0123456789abcdef"

  let digest_bytes (input : Bytes.t) : string =
    let ctx = init () in
    let len = Bytes.length input in
    (* padded length: message + 0x80 + zeros + 8-byte little-endian bit length *)
    let padded_len = ((len + 8) / 64 * 64) + 64 in
    let msg = Bytes.make padded_len '\000' in
    Bytes.blit input 0 msg 0 len;
    Bytes.set msg len '\x80';
    let bitlen = len * 8 in
    for i = 0 to 7 do
      Bytes.set msg (padded_len - 8 + i) (Char.chr ((bitlen lsr (8 * i)) land 0xFF))
    done;
    let n_chunks = padded_len / 64 in
    for chunk = 0 to n_chunks - 1 do
      process_chunk ctx msg (chunk * 64)
    done;
    let out = Bytes.create 32 in
    List.iteri
      (fun w word ->
        for i = 0 to 3 do
          let byte = (word lsr (8 * i)) land 0xFF in
          Bytes.set out ((w * 8) + (i * 2)) hex_digits.[byte lsr 4];
          Bytes.set out ((w * 8) + (i * 2) + 1) hex_digits.[byte land 0xF]
        done)
      [ ctx.a; ctx.b; ctx.c; ctx.d ];
    Bytes.to_string out

  let digest_string (s : string) : string = digest_bytes (Bytes.of_string s)
end
