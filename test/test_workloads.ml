(** Integration tests over the eight evaluation workloads:

    - every workload (and variant) compiles through the full pipeline;
    - pragma elision: stripping every [#pragma] leaves a sequential
      program with identical output (the paper's compatibility property);
    - simulated parallel executions never corrupt output (worst case:
      multiset-equal, i.e. reordered);
    - the best plan family matches the paper's Table 2 winner;
    - semantic commutativity holds for real: iterating md5sum/geti's main
      loop in a shuffled order produces the same output multiset. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module L = Commset_lang
module R = Commset_runtime

let check = Alcotest.check

let run_sequential ~setup src =
  let ast = L.Parser.parse_program ~file:"<w>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = R.Machine.create () in
  setup machine;
  let interp = Interp.create ~machine prog in
  let _ = Interp.run_main interp in
  R.Machine.outputs machine

(* cache of full evaluations: compiling + simulating once per workload *)
let eval_cache : (string, P.t * P.run list) Hashtbl.t = Hashtbl.create 16

let evaluated (w : W.t) =
  match Hashtbl.find_opt eval_cache w.W.wname with
  | Some v -> v
  | None ->
      let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
      let runs = P.evaluate c ~threads:8 in
      Hashtbl.replace eval_cache w.W.wname (c, runs);
      (c, runs)

let test_compiles_and_plans w () =
  let c, runs = evaluated w in
  check Alcotest.bool "has plans" true (runs <> []);
  check Alcotest.bool "has a COMMSET plan" true
    (List.exists (fun r -> r.P.plan.T.Plan.uses_commset) runs);
  check Alcotest.bool "hot loop dominates" true (P.loop_fraction c > 0.7);
  List.iter
    (fun r ->
      if r.P.fidelity = P.Mismatch then
        Alcotest.failf "plan %s corrupted output" r.P.plan.T.Plan.label)
    runs

let test_elision w () =
  let annotated = run_sequential ~setup:w.W.setup w.W.source in
  let stripped = run_sequential ~setup:w.W.setup (W.strip_pragmas w.W.source) in
  check Alcotest.(list string) "pragma elision preserves sequential output" annotated stripped

let test_best_scheme w () =
  let _, runs = evaluated w in
  let best =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some b when b.P.speedup >= r.P.speedup -> acc
        | _ -> Some r)
      None
      (List.filter (fun r -> r.P.plan.T.Plan.uses_commset) runs)
  in
  match best with
  | None -> Alcotest.fail "no COMMSET plan"
  | Some b ->
      (* the plan family (DOALL vs pipeline) must match the paper's winner;
         magnitudes must be in the right ballpark *)
      let paper_family =
        if String.length w.W.paper_best_scheme >= 5 && String.sub w.W.paper_best_scheme 0 5 = "DOALL"
        then `Doall
        else `Pipeline
      in
      let our_family =
        match b.P.plan.T.Plan.shape with T.Plan.Sdoall -> `Doall | T.Plan.Sdswp _ -> `Pipeline
      in
      check Alcotest.bool
        (Printf.sprintf "family matches paper (%s vs %s)" b.P.plan.T.Plan.label
           w.W.paper_best_scheme)
        true
        (paper_family = our_family);
      check Alcotest.bool
        (Printf.sprintf "speedup %.2f within 2x of paper %.2f" b.P.speedup w.W.paper_best_speedup)
        true
        (b.P.speedup > w.W.paper_best_speedup /. 2.0
        && b.P.speedup < w.W.paper_best_speedup *. 2.0)

let test_variants_compile w () =
  List.iter
    (fun (vn, src) ->
      let c = P.compile ~name:(w.W.wname ^ "/" ^ vn) ~setup:w.W.setup src in
      let runs = P.evaluate c ~threads:8 in
      check Alcotest.bool (vn ^ " has plans") true (runs <> []);
      List.iter
        (fun r ->
          if r.P.fidelity = P.Mismatch then
            Alcotest.failf "variant %s plan %s corrupted output" vn r.P.plan.T.Plan.label)
        runs)
    w.W.variants

(* ---- semantic commutativity: shuffled iteration order ---- *)

(* md5sum with the main loop visiting files in a stride-permuted order:
   the annotations assert digests of distinct files commute, so the
   printed multiset must be unchanged *)
let md5sum_shuffled stride n =
  Printf.sprintf
    {|
void main() {
  int nfiles = %d;
  for (int k = 0; k < nfiles; k++) {
    int i = (k * %d) %% nfiles;
    int fd = fopen("in/file" + int_to_string(i));
    string data = "";
    bool done = false;
    while (!done) {
      string chunk = fread(fd, 1024);
      if (strlen(chunk) == 0) {
        done = true;
      } else {
        data = data + chunk;
      }
    }
    print(md5_hex(data) + "  in/file" + int_to_string(i));
    fclose(fd);
  }
}
|}
    n stride

let test_md5sum_commutes () =
  let w = Option.get (Registry.find "md5sum") in
  let reference = run_sequential ~setup:w.W.setup (W.strip_pragmas w.W.source) in
  List.iter
    (fun stride ->
      (* strides coprime with 96 give genuine permutations *)
      let shuffled = run_sequential ~setup:w.W.setup (md5sum_shuffled stride 96) in
      check Alcotest.int "same cardinality" (List.length reference) (List.length shuffled);
      check
        Alcotest.(list string)
        (Printf.sprintf "output multiset invariant under stride %d" stride)
        (List.sort compare reference) (List.sort compare shuffled))
    [ 7; 25; 77 ]

(* geti shuffled: supports and itemset lines are per-transaction, so any
   processing order yields the same print multiset *)
let geti_shuffled stride =
  let w = Option.get (Registry.find "geti") in
  let base = W.strip_pragmas w.W.source in
  (* rewrite the loop header to a strided visit; the body uses `i` *)
  let needle = "for (int i = 0; i < ntrans; i++) {" in
  let replacement =
    Printf.sprintf
      "for (int k = 0; k < ntrans; k++) {\n    int i = (k * %d) %% ntrans;" stride
  in
  let rec replace s =
    let ln = String.length needle in
    let rec find i =
      if i + ln > String.length s then None
      else if String.sub s i ln = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
        String.sub s 0 i ^ replacement
        ^ replace (String.sub s (i + ln) (String.length s - i - ln))
    | None -> s
  in
  replace base

let test_geti_commutes () =
  let w = Option.get (Registry.find "geti") in
  let reference = run_sequential ~setup:w.W.setup (W.strip_pragmas w.W.source) in
  let shuffled = run_sequential ~setup:w.W.setup (geti_shuffled 7) in
  check
    Alcotest.(list string)
    "geti output multiset invariant" (List.sort compare reference) (List.sort compare shuffled)

(* kmeans: any update order yields the same member counts (the checksum
   may differ in float rounding, so compare the integer line exactly) *)
let test_kmeans_commutes () =
  let w = Option.get (Registry.find "kmeans") in
  let base = W.strip_pragmas w.W.source in
  let needle = "for (int i = 0; i < nobjs; i++) {" in
  let replacement = "for (int kk = 0; kk < nobjs; kk++) {\n    int i = (kk * 77) % nobjs;" in
  let replace s =
    let ln = String.length needle in
    let rec find i =
      if i + ln > String.length s then None
      else if String.sub s i ln = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
        String.sub s 0 i ^ replacement ^ String.sub s (i + ln) (String.length s - i - ln)
    | None -> s
  in
  let reference = run_sequential ~setup:w.W.setup base in
  let shuffled = run_sequential ~setup:w.W.setup (replace base) in
  let members = List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "kmeans ") in
  check Alcotest.(list string) "member counts invariant"
    (List.filter (fun l -> not (String.contains l '.')) (members reference))
    (List.filter (fun l -> not (String.contains l '.')) (members shuffled))

(* ---- generated inputs: built once, shared, unchanged ---- *)

let set_up name =
  let m = R.Machine.create () in
  (Option.get (Registry.find name)).W.setup m;
  m

(* every file (by path), packet (id, queued and registered url) and
   database row a set-up installs, digested *)
let installed_digest m =
  let b = Buffer.create 4096 in
  Hashtbl.fold (fun path _ acc -> path :: acc) m.R.Machine.files []
  |> List.sort compare
  |> List.iter (fun path ->
         Buffer.add_string b
           (Printf.sprintf "%s=%s\n" path (Option.get (R.Machine.file_contents m path))));
  List.iter
    (fun (id, url) ->
      Buffer.add_string b (Printf.sprintf "%d:%s|%s\n" id url (R.Machine.pkt_url m id)))
    m.R.Machine.packets;
  Array.iter (fun row -> Buffer.add_string b (row ^ "\n")) m.R.Machine.db_rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_inputs_pinned () =
  List.iter
    (fun (name, digest) -> check Alcotest.string name digest (installed_digest (set_up name)))
    [
      ("md5sum", "40ec8da5a6d1cdda6d4bd68b15b4f00f");
      ("potrace", "8d27d2508819db46e284ff42a3286a7a");
      ("url", "a0a6eb11c86db149dc5abb1ba6e7ccb4");
      ("eclat", "ca21c5a06501f31552b5084bed3e260b");
    ]

let test_inputs_shared () =
  let shared what get n =
    for i = 0 to n - 1 do
      match (get (fst what) i, get (snd what) i) with
      | Some a, Some b ->
          if not (a == b) then Alcotest.failf "input %d is a copy, not the shared string" i
      | _ -> Alcotest.failf "input %d missing" i
    done
  in
  let file fmt m i = R.Machine.file_contents m (Printf.sprintf fmt i) in
  shared (set_up "md5sum", set_up "md5sum") (file "in/file%d") 96;
  shared (set_up "potrace", set_up "potrace") (file "bmp/img%d") 96;
  shared (set_up "url", set_up "url") (fun m i -> Some (R.Machine.pkt_url m i)) 400

let test_once_two_domains () =
  let runs = Atomic.make 0 in
  let go = Atomic.make false in
  let input =
    W.once (fun () ->
        Atomic.incr runs;
        String.init 4096 (fun i -> Char.chr (i land 0xFF)))
  in
  let force () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    input ()
  in
  let d1 = Domain.spawn force and d2 = Domain.spawn force in
  Atomic.set go true;
  let a = Domain.join d1 and b = Domain.join d2 in
  check Alcotest.string "both domains see equal values" a b;
  let computed = Atomic.get runs in
  check Alcotest.bool "one or two computations" true (computed = 1 || computed = 2);
  check Alcotest.bool "one physical value afterwards, the one both domains got" true
    (input () == a && input () == b);
  check Alcotest.int "no computation after the first use" computed (Atomic.get runs)

let workload_cases =
  List.concat_map
    (fun w ->
      [
        Alcotest.test_case (w.W.wname ^ ": compiles, plans, fidelity") `Slow
          (test_compiles_and_plans w);
        Alcotest.test_case (w.W.wname ^ ": pragma elision") `Slow (test_elision w);
        Alcotest.test_case (w.W.wname ^ ": best scheme vs paper") `Slow (test_best_scheme w);
        Alcotest.test_case (w.W.wname ^ ": variants") `Slow (test_variants_compile w);
      ])
    Registry.all

let suite =
  ( "workloads",
    workload_cases
    @ [
        Alcotest.test_case "md5sum commutes under shuffles" `Slow test_md5sum_commutes;
        Alcotest.test_case "geti commutes under shuffles" `Slow test_geti_commutes;
        Alcotest.test_case "kmeans counts commute" `Slow test_kmeans_commutes;
        Alcotest.test_case "set-ups install the pinned inputs" `Quick test_inputs_pinned;
        Alcotest.test_case "set-ups share one generated input" `Quick test_inputs_shared;
        Alcotest.test_case "once from two domains keeps one value" `Quick test_once_two_domains;
      ] )
