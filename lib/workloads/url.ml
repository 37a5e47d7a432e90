(** url — URL-based packet switching (paper §5.7, from NetBench).

    The main loop dequeues packets from a shared pool, matches their URL
    against a rule table (pure compute), and logs the switching decision.
    Out-of-order switching is allowed by the protocol: the dequeue
    wrapper and the logging block go into SELF commsets. The logging
    library is internally thread-safe, so no compiler lock is inserted
    for it, while the pool dequeue is automatically lock-protected. *)

let n_packets = 400
let n_rules = 20
let url_len = 200

let source =
  Printf.sprintf
    {|
// url: switch packets on their URL
#pragma commset member SELF
int get_packet() {
  return pkt_dequeue();
}

void main() {
  int npkts = %d;
  int nrules = %d;
  string[] rules = sarray(nrules);
  for (int r = 0; r < nrules; r++) {
    rules[r] = "/svc" + int_to_string((r * 7) %% nrules) + "/v" + int_to_string(r) + "/";
  }
  for (int i = 0; i < npkts; i++) {
    int p = get_packet();
    string url = pkt_url(p);
    int route = 0 - 1;
    for (int r = 0; r < nrules; r++) {
      if (route < 0) {
        if (str_find(url, rules[r]) >= 0) {
          route = r;
        }
      }
    }
    #pragma commset member SELF
    {
      log_write(int_to_string(p) + " -> " + int_to_string(route));
    }
  }
  print("switched " + int_to_string(log_count()));
}
|}
    n_packets n_rules

(* deterministic pseudo-random packets, (id, url) in arrival order *)
let packets =
  Workload.once (fun () ->
      let st = ref 3 in
      let next () =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st
      in
      List.init n_packets (fun i ->
          let svc = next () mod n_rules in
          let v = next () mod n_rules in
          let base = Printf.sprintf "http://host%d/svc%d/v%d/page" (next () mod 16) svc v in
          let pad = String.init (max 0 (url_len - String.length base)) (fun _ ->
              Char.chr (97 + (next () mod 26)))
          in
          (i, base ^ "?" ^ pad)))

let setup m =
  let pkts = packets () in
  List.iter (fun (id, url) -> Commset_runtime.Machine.register_packet_url m id url) pkts;
  Commset_runtime.Machine.set_packets m pkts

let workload : Workload.t =
  {
    Workload.wname = "url";
    paper_name = "url";
    description = "URL-based packet switching with shared pool and log";
    source;
    variants = [];
    setup;
    paper_best_scheme = "DOALL + Spin";
    paper_best_speedup = 7.7;
    paper_annotations = 2;
    paper_sloc = 629;
    paper_loop_fraction = 1.0;
    paper_features = [ "I"; "S" ];
    paper_transforms = [ "DOALL"; "PS-DSWP" ];
  }
