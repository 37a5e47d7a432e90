(** ECLAT — association-rule mining over a vertical database (paper §5.3).

    Each iteration reads a transaction row from the shared database
    cursor, builds an order-sensitive per-iteration itemset (NOT
    annotated — the intersection code depends on a deterministic prefix,
    and privatization, not commutativity, is what parallelizes it),
    counts pairwise support, inserts the result into a shared
    Lists<Itemset*> out of order, updates Stats methods, and
    constructs/destroys an itemset object from the shared allocator.

    Annotations, following the paper: (a) the database read block is
    self-commutative; (b) the list insertion is context-sensitively
    tagged self-commuting in client code; (c) object
    construction/destruction commute on separate iterations; (d) the
    Stats methods form an unpredicated Group commset. *)

let n_trans = 400
let row_len = 60

let source =
  Printf.sprintf
    {|
// ECLAT: frequent itemsets over a vertical database
#pragma commset decl OSET group
#pragma commset decl DSET group
#pragma commset decl STATS group
#pragma commset predicate OSET (i1) (i2) (i1 != i2)
#pragma commset predicate DSET (d1) (d2) (d1 != d2)

#pragma commset member STATS, SELF
void stat_len(float v) {
  stat_add(v);
}

#pragma commset member STATS, SELF
void stat_support(float v) {
  stat_note_max(v);
}

void main() {
  int ntrans = %d;
  int seen = bm_new(1024);
  int results = list_new();
  for (int i = 0; i < ntrans; i++) {
    string row = "";
    #pragma commset member SELF
    {
      row = db_read();
    }
    int key = str_hash(row) %% 1024;
    bool fresh = false;
    #pragma commset member DSET(i), SELF
    {
      fresh = !bm_get(seen, key);
    }
    if (fresh) {
    // order-sensitive itemset build: a deterministic prefix matters here
    int len = strlen(row);
    int[] itemset = iarray(64);
    int count = 0;
    for (int j = 0; j < len; j++) {
      int c = str_get(row, j);
      if (c > 64) {
        itemset[count %% 64] = c;
        count = count + 1;
      }
    }
    // vertical intersection support counting (pure compute)
    int support = 0;
    for (int a = 0; a < count; a++) {
      for (int b = a + 1; b < count; b++) {
        if ((itemset[a %% 64] * itemset[b %% 64]) %% 7 == 0) {
          support = support + 1;
        }
      }
    }
    int obj = 0;
    #pragma commset member OSET(i), SELF
    {
      obj = list_new();
    }
    #pragma commset member DSET(i), SELF
    {
      bm_set(seen, key);
      list_insert(results, support);
    }
    stat_len(int_to_float(count));
    stat_support(int_to_float(support));
    #pragma commset member OSET(i), SELF
    {
      list_free(obj);
    }
    }
  }
  print("frequent " + int_to_string(list_size(results)));
  print("supportsum " + int_to_string(list_sum(results)));
  print(stat_summary());
}
|}
    n_trans

(* deterministic pseudo-random transaction rows *)
let rows =
  Workload.once (fun () ->
      let st = ref 7 in
      let next () =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st
      in
      Array.init n_trans (fun i ->
          (* transactions vary in size, like real market-basket data *)
          let len = (row_len / 2) + (i * 37 mod row_len) in
          String.init len (fun _ ->
              (* ASCII letters with some punctuation that is filtered out *)
              let v = next () mod 64 in
              Char.chr (48 + v))))

(* each machine gets its own array, so a write through [Machine.db_rows]
   cannot reach the shared one *)
let setup m = Commset_runtime.Machine.set_db_rows m (Array.copy (rows ()))

let workload : Workload.t =
  {
    Workload.wname = "eclat";
    paper_name = "ECLAT";
    description = "frequent-itemset mining with a shared DB cursor and stats";
    source;
    variants = [];
    setup;
    paper_best_scheme = "DOALL + Mutex";
    paper_best_speedup = 7.5;
    paper_annotations = 11;
    paper_sloc = 3271;
    paper_loop_fraction = 0.97;
    paper_features = [ "PC"; "C"; "I"; "S"; "G" ];
    paper_transforms = [ "DOALL"; "DSWP" ];
  }
