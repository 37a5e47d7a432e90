(** Semantics tests for the builtin table: signatures vs implementations,
    effect-spec sanity, and the behaviour of the string/array/collection
    builtins as observed through miniC programs. *)

module L = Commset_lang
module R = Commset_runtime
module Effects = Commset_analysis.Effects

let check = Alcotest.check

let run_src src =
  let ast = L.Parser.parse_program ~file:"<test>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = R.Machine.create () in
  let interp = Interp.create ~machine prog in
  let _ = Interp.run_main interp in
  R.Machine.outputs machine

let expect src outputs = check Alcotest.(list string) src outputs (run_src src)

(* ---- registry sanity ---- *)

let test_registry () =
  check Alcotest.bool "several dozen builtins" true (List.length R.Builtins.all > 40);
  (* names unique *)
  let names = List.map (fun b -> b.R.Builtins.name) R.Builtins.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* every extern signature corresponds to a builtin and vice versa *)
  check Alcotest.int "extern sigs match" (List.length R.Builtins.all)
    (List.length R.Builtins.extern_sigs);
  (* lookup_spec agrees with the table *)
  List.iter
    (fun b ->
      match R.Builtins.lookup_spec b.R.Builtins.name with
      | Some spec -> check Alcotest.bool "spec identical" true (spec = b.R.Builtins.spec)
      | None -> Alcotest.failf "lookup_spec missing %s" b.R.Builtins.name)
    R.Builtins.all

let test_effect_spec_sanity () =
  List.iter
    (fun b ->
      let spec = b.R.Builtins.spec in
      (* array-effect positions must be inside the signature *)
      List.iter
        (fun p ->
          if p < 0 || p >= List.length b.R.Builtins.params then
            Alcotest.failf "%s: array-effect position %d out of range" b.R.Builtins.name p)
        (spec.Effects.bs_reads_arrays @ spec.Effects.bs_writes_arrays);
      (* a thread-safe builtin must own at least one resource or be the
         console (otherwise the flag is meaningless) *)
      ignore spec)
    R.Builtins.all

(* ---- string builtins ---- *)

let test_string_builtins () =
  expect
    {|
void main() {
  string s = "hello world";
  print(int_to_string(strlen(s)));
  print(substr(s, 6, 5));
  print(substr(s, 8, 100));
  print(int_to_string(str_get(s, 0)));
  print(int_to_string(str_find(s, "world")));
  print(int_to_string(str_find(s, "zz")));
}
|}
    [ "11"; "world"; "rld"; "104"; "6"; "-1" ]

let test_conversions () =
  expect
    {|
void main() {
  print(float_to_string(int_to_float(3)));
  print(int_to_string(float_to_int(2.9)));
  print(float_to_string(fsqrt(16.0)));
  print(float_to_string(fabs(0.0 - 2.5)));
}
|}
    [ "3.0000"; "2"; "4.0000"; "2.5000" ]

(* ---- md5 / trace / svg kernels ---- *)

let test_kernels () =
  expect
    {|
void main() {
  print(md5_hex("abc"));
  print(trace_bitmap("ABCDEFGH"));
  print(svg_encode("zz"));
  print(int_to_string(strlen(svg_encode("zz"))));
}
|}
    [ "900150983cd24fb0d6963f7d28e17f72"; "P4;BOHM"; "<svg>7a7a</svg>"; "15" ]

(* ---- the string kernels against their reference definitions ---- *)

let kernel_machine = lazy (R.Machine.create ())

(* one call of a string builtin: its value and charged cost *)
let call_kernel name args =
  let bi = R.Builtins.find_exn name in
  bi.R.Builtins.impl (Lazy.force kernel_machine) (List.map (fun s -> R.Value.Vstring s) args)

(* value equal, cost bit-identical *)
let agrees (v, cost) (ref_v, ref_cost) =
  v = ref_v && Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float ref_cost)

let str_find_agrees (hay, needle) =
  let i, cost = Ref_kernels.str_find hay needle in
  agrees (call_kernel "str_find" [ hay; needle ]) (R.Value.Vint i, cost)

let string_kernel_agrees name reference s =
  let v, cost = reference s in
  agrees (call_kernel name [ s ]) (R.Value.Vstring v, cost)

(* hay and needle over a two- or four-letter alphabet (partial and
   overlapping matches), or a needle cut from the hay *)
let find_case =
  let open QCheck.Gen in
  let over alphabet n = string_size ~gen:(oneofl alphabet) n in
  let alphabet = oneofl [ [ 'a'; 'b' ]; [ 'a'; 'b'; 'c'; 'd' ] ] in
  let random =
    alphabet >>= fun a -> pair (over a (int_bound 80)) (over a (int_range 1 6))
  in
  let cut =
    string_size ~gen:char (int_range 1 300) >>= fun hay ->
    int_bound (String.length hay - 1) >>= fun i ->
    int_range 1 (String.length hay - i) >>= fun n -> return (hay, String.sub hay i n)
  in
  frequency [ (3, random); (2, cut) ]

let prop_str_find =
  QCheck.Test.make ~name:"str_find agrees with the reference, value and cost" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair string string) find_case)
    str_find_agrees

let test_str_find_edges () =
  List.iter
    (fun (hay, needle) ->
      check Alcotest.bool (Printf.sprintf "str_find(%S, %S)" hay needle) true
        (str_find_agrees (hay, needle)))
    [ ("abc", ""); ("", ""); ("", "a"); ("ab", "abc"); ("aaab", "aab"); ("abab", "bab");
      ("xyz", "z"); ("xyz", "x"); ("xyz", "xyz"); ("xyz", "xyy") ];
  check Alcotest.bool "empty needle gives 0" true
    (fst (call_kernel "str_find" [ "abc"; "" ]) = R.Value.Vint 0);
  check Alcotest.bool "needle longer than the hay gives -1" true
    (fst (call_kernel "str_find" [ "ab"; "abc" ]) = R.Value.Vint (-1))

(* every byte value, lengths 0-3,000 (odd ones included) *)
let bitmap_string =
  QCheck.make ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
    QCheck.Gen.(string_size ~gen:char (int_bound 3000))

let prop_trace_bitmap =
  QCheck.Test.make ~name:"trace_bitmap agrees with the reference, value and cost" ~count:300
    bitmap_string
    (string_kernel_agrees "trace_bitmap" Ref_kernels.trace_bitmap)

let prop_svg_encode =
  QCheck.Test.make ~name:"svg_encode agrees with the reference, value and cost" ~count:300
    bitmap_string
    (string_kernel_agrees "svg_encode" Ref_kernels.svg_encode)

(* ---- the string kernels allocate their result only ----
   Inputs stay at or below 500 bytes, so every result is a minor-heap
   block and [Gc.minor_words] sees all of it. *)

let minor_words_of name args =
  let bi = R.Builtins.find_exn name and m = R.Machine.create () in
  let argv = List.map (fun s -> R.Value.Vstring s) args in
  ignore (bi.R.Builtins.impl m argv);
  let w0 = Gc.minor_words () in
  let v, _ = bi.R.Builtins.impl m argv in
  let words = Gc.minor_words () -. w0 in
  (v, words)

let result_words = function
  | R.Value.Vstring s -> float_of_int (Obj.reachable_words (Obj.repr s))
  | _ -> Alcotest.fail "a string kernel returned a non-string"

let bytes_of n = String.init n (fun i -> Char.chr ((i * 37) land 0xFF))

let test_str_find_alloc () =
  let words n = snd (minor_words_of "str_find" [ String.make n 'a'; "ab" ]) in
  let w100 = words 100 and w500 = words 500 in
  check (Alcotest.float 0.)
    (Printf.sprintf "a miss allocates the same for 100 and 500 bytes (%.0f, %.0f)" w100 w500)
    w100 w500

let test_svg_encode_alloc () =
  let v, words = minor_words_of "svg_encode" [ bytes_of 500 ] in
  let bound = result_words v +. 16. in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words, at most the result's words + 16 (%.0f)" words bound)
    true (words <= bound)

let test_trace_bitmap_alloc () =
  let v, words = minor_words_of "trace_bitmap" [ bytes_of 500 ] in
  let bound = (2. *. result_words v) +. 32. in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words, at most twice the result's words + 32 (%.0f)" words
       bound)
    true (words <= bound)

(* ---- arrays and fills ---- *)

let test_array_builtins () =
  expect
    {|
void main() {
  float[] f = farray(4);
  afill_f(f, 50, 100);
  print(float_to_string(f[1] + f[3]));
  int[] a = iarray(3);
  afill_i(a, 2, 10);
  print(int_to_string(a[0] + a[1] + a[2]));
  print(int_to_string(alen_f(f)) + int_to_string(alen_i(a)));
}
|}
    [ "1.0000"; "6"; "43" ]

(* ---- collections through miniC ---- *)

let test_collections_via_program () =
  expect
    {|
void main() {
  int bm = bm_new(64);
  bm_set(bm, 5);
  if (bm_get(bm, 5)) {
    print("bit5");
  }
  if (!bm_get(bm, 6)) {
    print("not6");
  }
  bm_free(bm);
  int l = list_new();
  list_insert(l, 4);
  list_insert(l, 9);
  if (list_contains(l, 9)) {
    print("has9");
  }
  print(int_to_string(list_sum(l)));
  list_free(l);
  cache_put("k", "v1");
  print(cache_get("k"));
  print(cache_get("missing") + "!");
}
|}
    [ "bit5"; "not6"; "has9"; "13"; "v1"; "!" ]

let test_rng_and_hist () =
  let out =
    run_src
      {|
void main() {
  rng_reseed(7);
  int a = rng_int(100);
  rng_reseed(7);
  int b = rng_int(100);
  if (a == b) {
    print("deterministic");
  }
  int c = rng_range(10, 20);
  if (c >= 10 && c < 20) {
    print("in-range");
  }
  hist_add(0.5);
  hist_add(1.5);
  print(hist_summary());
}
|}
  in
  check Alcotest.(list string) "rng behaviour"
    [ "deterministic"; "in-range"; "hist n=2 mean=1.0000" ]
    out

(* ---- every builtin on edge arguments ---- *)

(* Edge values for each declared parameter type. Lengths stay at or
   below 10^6 or go past the platform's maximum, so a call either
   allocates little or must refuse; none merely exhausts memory. *)
let edge_values : L.Ast.ty -> R.Value.t list =
  let ints = [ min_int; -9; -3; -1; 0; 1; 3; 4; 1_000_000; max_int ] in
  let arr mk = [ [||]; Array.init 4 mk ] in
  function
  | L.Ast.Tint -> List.map (fun n -> R.Value.Vint n) ints
  | L.Ast.Tfloat ->
      List.map (fun f -> R.Value.Vfloat f) [ 0.; -1.5; nan; infinity; neg_infinity; 1e308 ]
  | L.Ast.Tbool -> [ R.Value.Vbool true; R.Value.Vbool false ]
  | L.Ast.Tstring -> List.map (fun s -> R.Value.Vstring s) [ ""; "abc"; "f" ]
  | L.Ast.Tarray L.Ast.Tfloat ->
      List.map (fun a -> R.Value.Varray a) (arr (fun i -> R.Value.Vfloat (float_of_int i)))
  | L.Ast.Tarray L.Ast.Tstring ->
      List.map (fun a -> R.Value.Varray a) (arr (fun _ -> R.Value.Vstring "s"))
  | L.Ast.Tarray _ -> List.map (fun a -> R.Value.Varray a) (arr (fun i -> R.Value.Vint i))
  | _ -> [ R.Value.Vint 0 ]

(* a machine where handle 1 names a live bitmap and list, fd 3 an open
   file, and the graph, packet queue and database are populated *)
let edge_machine () =
  let m = R.Machine.create () in
  R.Machine.add_file m "f" "hello";
  ignore (R.Machine.fopen m "f" : int);
  ignore (R.Machine.bm_new m 16 : int);
  ignore (R.Machine.list_new m : int);
  R.Machine.graph_build_nodes m 4;
  R.Machine.set_packets m [ (1, "u") ];
  R.Machine.set_db_rows m [| "row" |];
  m

let test_edge_arguments () =
  let rec combos = function
    | [] -> [ [] ]
    | ty :: rest ->
        let tails = combos rest in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) (edge_values ty)
  in
  let escaped =
    List.filter_map
      (fun (bi : R.Builtins.t) ->
        List.find_map
          (fun args ->
            match bi.R.Builtins.impl (edge_machine ()) args with
            | _ -> None
            | exception Commset_support.Diag.Error _ -> None
            | exception e ->
                Some
                  (Printf.sprintf "%s(%s): %s" bi.R.Builtins.name
                     (String.concat ", " (List.map R.Value.to_display_string args))
                     (Printexc.to_string e)))
          (combos bi.R.Builtins.params))
      R.Builtins.all
  in
  check Alcotest.(list string) "builtins that escape with a non-diagnostic exception" []
    escaped

let test_argument_labels () =
  let imin = Option.get (R.Builtins.find "imin") in
  match imin.R.Builtins.impl (R.Machine.create ()) [ R.Value.Vint 1; R.Value.Vstring "x" ] with
  | _ -> Alcotest.fail "an ill-typed argument was accepted"
  | exception Commset_support.Diag.Error d ->
      check Alcotest.string "diagnostic" "runtime: argument 1 is not an int"
        d.Commset_support.Diag.message

(* ---- one descriptor per builtin ---- *)

let test_descriptors_complete () =
  let families = Hashtbl.create 8 in
  List.iteri
    (fun i (bi : R.Builtins.t) ->
      let name = bi.R.Builtins.name and spec = bi.R.Builtins.spec in
      let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
      if bi.R.Builtins.id <> i then fail "id %d at position %d" bi.R.Builtins.id i;
      let resources = spec.Effects.bs_reads @ spec.Effects.bs_writes in
      if List.sort_uniq compare resources <> List.sort compare bi.R.Builtins.resources then
        fail "resource list differs from the spec";
      (match bi.R.Builtins.sharing with
      | R.Builtins.Free -> if resources <> [] then fail "free but declares resources"
      | R.Builtins.Ordered when spec.Effects.bs_writes = [] -> fail "ordered but writes nothing"
      | R.Builtins.Bitmap_access _ when Option.is_none bi.R.Builtins.arg_cost ->
          fail "a private-bitmap route needs a cost from the arguments"
      | _ -> ());
      (match spec.Effects.bs_update with
      | Effects.Update_writer f ->
          if Option.is_none bi.R.Builtins.arg_cost then
            fail "a buffered route needs a cost from the arguments";
          if bi.R.Builtins.ret <> L.Ast.Tvoid then fail "an update writer must return unit";
          Hashtbl.replace families f true
      | Effects.Update_reader f ->
          if not (Hashtbl.mem families f) then Hashtbl.replace families f false
      | Effects.No_update -> ());
      if bi.R.Builtins.wclass <> R.Builtins.Opaque && spec.Effects.bs_writes = [] then
        fail "a write class without a written resource";
      (match bi.R.Builtins.partition with
      | Some (r, idx) ->
          if not (List.mem r resources) then fail "partitions undeclared resource %s" r;
          if idx < 0 || idx >= List.length bi.R.Builtins.params then
            fail "partition key %d out of range" idx
      | None -> ());
      if bi.R.Builtins.injective && List.length bi.R.Builtins.params <> 1 then
        fail "injective but not unary")
    R.Builtins.all;
  Hashtbl.iter
    (fun f has_writer -> if not has_writer then Alcotest.failf "family %s has no writer" f)
    families

let suite =
  ( "builtins",
    [
      Alcotest.test_case "registry sanity" `Quick test_registry;
      Alcotest.test_case "effect spec sanity" `Quick test_effect_spec_sanity;
      Alcotest.test_case "string builtins" `Quick test_string_builtins;
      Alcotest.test_case "conversions" `Quick test_conversions;
      Alcotest.test_case "md5/trace/svg kernels" `Quick test_kernels;
      QCheck_alcotest.to_alcotest ~long:false prop_str_find;
      Alcotest.test_case "str_find edge cases against the reference" `Quick test_str_find_edges;
      QCheck_alcotest.to_alcotest ~long:false prop_trace_bitmap;
      QCheck_alcotest.to_alcotest ~long:false prop_svg_encode;
      Alcotest.test_case "str_find allocates nothing per position" `Quick test_str_find_alloc;
      Alcotest.test_case "svg_encode allocates its result only" `Quick test_svg_encode_alloc;
      Alcotest.test_case "trace_bitmap allocates its path and result only" `Quick
        test_trace_bitmap_alloc;
      Alcotest.test_case "array builtins" `Quick test_array_builtins;
      Alcotest.test_case "collections via miniC" `Quick test_collections_via_program;
      Alcotest.test_case "rng and histogram" `Quick test_rng_and_hist;
      Alcotest.test_case "edge arguments end in a diagnostic" `Quick test_edge_arguments;
      Alcotest.test_case "argument labels in coercion errors" `Quick test_argument_labels;
      Alcotest.test_case "every descriptor is complete" `Quick test_descriptors_complete;
    ] )
