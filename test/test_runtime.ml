(** Tests for the runtime substrate: the MD5 implementation (RFC 1321
    vectors plus properties), the virtual machine (files, RNG, collections,
    packets, database, graph), the interpreter's semantics, and the
    profiler. *)

module L = Commset_lang
module Ir = Commset_ir.Ir
module R = Commset_runtime
open Commset_support

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- MD5 (RFC 1321 test suite) ---- *)

let test_md5_vectors () =
  let vectors =
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" );
    ]
  in
  List.iter
    (fun (input, expected) ->
      check Alcotest.string (Printf.sprintf "md5(%S)" input) expected
        (R.Md5.digest_string input);
      check Alcotest.string
        (Printf.sprintf "reference md5(%S)" input)
        expected
        (R.Md5.Reference.digest_string input))
    vectors

(* the stdlib fast path and the from-scratch reference must agree on
   arbitrary inputs, not just the RFC vectors *)
let prop_md5_matches_reference =
  QCheck.Test.make ~name:"md5 fast path agrees with the reference implementation"
    ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 300))
    (fun s -> R.Md5.digest_string s = R.Md5.Reference.digest_string s)

let prop_md5_shape =
  QCheck.Test.make ~name:"md5 digests are 32 lowercase hex chars" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 300))
    (fun s ->
      let d = R.Md5.digest_string s in
      String.length d = 32
      && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) d)

let prop_md5_deterministic =
  QCheck.Test.make ~name:"md5 is deterministic and length-sensitive" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_bound 200))
    (fun s ->
      R.Md5.digest_string s = R.Md5.digest_string s
      && R.Md5.digest_string (s ^ "x") <> R.Md5.digest_string s)

(* boundary lengths around the 64-byte block size and the 56-byte padding
   threshold must not crash and must stay distinct *)
let test_md5_boundaries () =
  let digests =
    List.map (fun n -> R.Md5.digest_string (String.make n 'q')) [ 54; 55; 56; 57; 63; 64; 65; 119; 128 ]
  in
  check Alcotest.int "all distinct" (List.length digests)
    (List.length (List.sort_uniq compare digests))

(* ---- machine: files ---- *)

let test_vfs () =
  let m = R.Machine.create () in
  R.Machine.add_file m "a.txt" "hello world";
  let fd = R.Machine.fopen m "a.txt" in
  check Alcotest.string "read 5" "hello" (R.Machine.fread m fd 5);
  check Alcotest.string "read rest" " world" (R.Machine.fread m fd 100);
  check Alcotest.bool "eof" true (R.Machine.feof m fd);
  check Alcotest.string "read past eof" "" (R.Machine.fread m fd 1);
  R.Machine.fclose m fd;
  (match Diag.guard (fun () -> R.Machine.fread m fd 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reading a closed fd must fail");
  let out = R.Machine.fopen m "out.txt" in
  R.Machine.fwrite m out "abc";
  R.Machine.fwrite m out "def";
  check Alcotest.(option string) "appended" (Some "abcdef") (R.Machine.file_contents m "out.txt")

let test_machine_rng () =
  let m1 = R.Machine.create () and m2 = R.Machine.create () in
  let seq m = List.init 16 (fun _ -> R.Machine.rng_int m 1000) in
  check Alcotest.(list int) "deterministic across machines" (seq m1) (seq m2);
  let v = R.Machine.rng_float m1 in
  check Alcotest.bool "float in [0,1)" true (v >= 0.0 && v < 1.0);
  R.Machine.rng_reseed m1 99;
  R.Machine.rng_reseed m2 99;
  check Alcotest.(list int) "reseed resyncs" (seq m1) (seq m2)

let test_machine_collections () =
  let m = R.Machine.create () in
  (* vector *)
  for i = 0 to 40 do
    R.Machine.vec_push m (string_of_int i)
  done;
  check Alcotest.int "vec size grows" 41 (R.Machine.vec_size m);
  check Alcotest.string "vec get" "17" (R.Machine.vec_get m 17);
  (* bitmap *)
  let b = R.Machine.bm_new m 128 in
  check Alcotest.bool "bit initially clear" false (R.Machine.bm_get m b 77);
  R.Machine.bm_set m b 77;
  check Alcotest.bool "bit set" true (R.Machine.bm_get m b 77);
  check Alcotest.bool "other bit clear" false (R.Machine.bm_get m b 78);
  R.Machine.bm_free m b;
  (* lists *)
  let l = R.Machine.list_new m in
  R.Machine.list_insert m l 5;
  R.Machine.list_insert m l 6;
  check Alcotest.int "list size" 2 (R.Machine.list_size m l);
  check Alcotest.int "list sum" 11 (R.Machine.list_sum m l);
  (* cache *)
  check Alcotest.string "cache miss" "" (R.Machine.cache_get m "k");
  R.Machine.cache_put m "k" "v";
  check Alcotest.string "cache hit" "v" (R.Machine.cache_get m "k")

let test_machine_packets_db () =
  let m = R.Machine.create () in
  R.Machine.set_packets m [ (1, "u1"); (2, "u2") ];
  R.Machine.register_packet_url m 1 "u1";
  check Alcotest.int "dequeue order" 1 (R.Machine.pkt_dequeue m);
  check Alcotest.string "payload" "u1" (R.Machine.pkt_url m 1);
  check Alcotest.int "second" 2 (R.Machine.pkt_dequeue m);
  check Alcotest.int "empty pool" (-1) (R.Machine.pkt_dequeue m);
  R.Machine.set_db_rows m [| "r0"; "r1" |];
  check Alcotest.string "db rows in order" "r0" (R.Machine.db_read m);
  check Alcotest.string "db second" "r1" (R.Machine.db_read m);
  check Alcotest.string "db exhausted" "" (R.Machine.db_read m)

let test_machine_graph () =
  let m = R.Machine.create () in
  R.Machine.graph_build_nodes m 10;
  (* the linked list visits every node exactly once *)
  let rec walk acc n = if n < 0 then acc else walk (n :: acc) (R.Machine.graph_next m n) in
  let visited = walk [] (R.Machine.graph_first m) in
  check Alcotest.int "visits all nodes" 10 (List.length visited);
  check Alcotest.(list int) "each exactly once" (List.init 10 (fun i -> i))
    (List.sort compare visited);
  R.Machine.graph_set_neighbor m 3 0 7;
  R.Machine.graph_set_neighbor m 3 0 8 (* overwrite, not a new edge *);
  R.Machine.graph_set_weight m 3 0 0.5;
  check Alcotest.bool "summary mentions the edge count" true
    (String.length (R.Machine.graph_summary m) > 0)

(* ---- interpreter ---- *)

let run_src ?machine src =
  let ast = L.Parser.parse_program ~file:"<test>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = match machine with Some m -> m | None -> R.Machine.create () in
  let interp = R.Interp.create ~machine prog in
  let total = R.Interp.run_main interp in
  (R.Machine.outputs machine, total)

let test_interp_arith () =
  let out, _ =
    run_src
      {|
void main() {
  int a = 7;
  int b = a * 3 - 1;
  print(int_to_string(b / 2) + " " + int_to_string(b % 7));
  float f = 1.5;
  print(float_to_string(f * 2.0 + 0.25));
  print(int_to_string(imin(3, 9)) + int_to_string(imax(3, 9)));
}
|}
  in
  check Alcotest.(list string) "arith output" [ "10 6"; "3.2500"; "39" ] out

let test_interp_control () =
  let out, _ =
    run_src
      {|
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
void main() {
  string s = "";
  for (int i = 0; i < 8; i++) {
    s = s + int_to_string(fib(i));
  }
  print(s);
}
|}
  in
  check Alcotest.(list string) "fibonacci" [ "011235813" ] out

let test_interp_arrays () =
  let out, _ =
    run_src
      {|
void main() {
  int[] a = iarray(5);
  for (int i = 0; i < 5; i++) {
    a[i] = i * i;
  }
  int sum = 0;
  for (int i = 0; i < 5; i++) {
    sum = sum + a[i];
  }
  print(int_to_string(sum) + "/" + int_to_string(alen_i(a)));
}
|}
  in
  check Alcotest.(list string) "array sum" [ "30/5" ] out

let test_interp_traps () =
  let fails src =
    match Diag.guard (fun () -> run_src src) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a runtime trap for %S" src
  in
  fails "void main() { int x = 1 / 0; }";
  fails "void main() { int[] a = iarray(2); a[5] = 1; }";
  fails "void main() { int[] a = iarray(2); int x = a[0 - 1]; }"

let test_interp_fuel () =
  let ast = L.Parser.parse_program "void main() { while (true) { } }" in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let interp = R.Interp.create ~fuel:1000 prog in
  match R.Interp.run_main interp with
  | exception R.Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "infinite loop must exhaust fuel"

(* Value.equal drives the interpreter's == / != : IEEE float semantics
   (nan compares unequal to itself, unlike polymorphic (=)), structural
   array comparison, and no cross-type coercion *)
let test_value_equal () =
  let open R.Value in
  let eq what expected a b = check Alcotest.bool what expected (R.Value.equal a b) in
  eq "ints" true (Vint 3) (Vint 3);
  eq "nan <> nan (IEEE)" false (Vfloat Float.nan) (Vfloat Float.nan);
  eq "0.0 = -0.0 (IEEE)" true (Vfloat 0.) (Vfloat (-0.));
  eq "float arrays with nan" false
    (Varray [| Vfloat Float.nan |])
    (Varray [| Vfloat Float.nan |]);
  eq "int arrays by content" true
    (Varray [| Vint 1; Vint 2 |])
    (Varray [| Vint 1; Vint 2 |]);
  eq "arrays of different length" false (Varray [| Vint 1 |]) (Varray [||]);
  eq "nested arrays" true
    (Varray [| Varray [| Vint 1 |]; Vstring "x" |])
    (Varray [| Varray [| Vint 1 |]; Vstring "x" |]);
  eq "cross-type unequal" false (Vint 0) (Vfloat 0.);
  eq "bools" false (Vbool true) (Vbool false);
  (* the interpreter's == goes through Value.equal: nan == nan is false,
     and !(nan == nan) is true, on real programs *)
  let out, _ =
    run_src
      {|
void main() {
  float n = 0.0 / 0.0;
  if (n == n) { print("eq"); } else { print("neq"); }
  if (n != n) { print("selfneq"); } else { print("selfeq"); }
}
|}
  in
  check Alcotest.(list string) "nan through the interpreter" [ "neq"; "selfneq" ] out

let test_interp_cost_positive () =
  let _, total = run_src "void main() { print(md5_hex(\"abc\")); }" in
  check Alcotest.bool "md5 costs more than its base" true
    (total > R.Costmodel.print_cost)

(* ---- profiler ---- *)

let test_profile_hottest () =
  let src =
    {|
void main() {
  int cheap = 0;
  for (int i = 0; i < 3; i++) {
    cheap = cheap + 1;
  }
  for (int j = 0; j < 50; j++) {
    print(md5_hex("block" + int_to_string(j)));
  }
}
|}
  in
  let ast = L.Parser.parse_program src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let profile = R.Profile.analyze (R.Precompile.prepare prog) in
  match R.Profile.hottest profile with
  | Some h ->
      check Alcotest.string "hottest function" "main" h.R.Profile.lr_func;
      check Alcotest.bool "dominant share" true (h.R.Profile.lr_fraction > 0.9);
      (* the md5 loop's header is the later one *)
      check Alcotest.bool "picked the md5 loop" true (h.R.Profile.lr_header > 1)
  | None -> Alcotest.fail "no loop found"

let suite =
  ( "runtime",
    [
      Alcotest.test_case "md5 RFC vectors" `Quick test_md5_vectors;
      Alcotest.test_case "md5 boundaries" `Quick test_md5_boundaries;
      Alcotest.test_case "vfs" `Quick test_vfs;
      Alcotest.test_case "rng" `Quick test_machine_rng;
      Alcotest.test_case "collections" `Quick test_machine_collections;
      Alcotest.test_case "packets and db" `Quick test_machine_packets_db;
      Alcotest.test_case "graph" `Quick test_machine_graph;
      Alcotest.test_case "interp arithmetic" `Quick test_interp_arith;
      Alcotest.test_case "interp recursion" `Quick test_interp_control;
      Alcotest.test_case "interp arrays" `Quick test_interp_arrays;
      Alcotest.test_case "interp traps" `Quick test_interp_traps;
      Alcotest.test_case "interp fuel" `Quick test_interp_fuel;
      Alcotest.test_case "Value.equal semantics" `Quick test_value_equal;
      Alcotest.test_case "interp cost accounting" `Quick test_interp_cost_positive;
      Alcotest.test_case "profiler hottest loop" `Quick test_profile_hottest;
      qcheck prop_md5_shape;
      qcheck prop_md5_deterministic;
      qcheck prop_md5_matches_reference;
    ] )
