module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover
module Mapverify = Smg_verify.Mapverify
module Diag = Smg_robust.Diag
module Instance = Smg_relational.Instance
module Value = Smg_relational.Value
module Inttbl = Smg_relational.Inttbl
module Engine = Smg_exchange.Engine

(* Hand-rolled JSON: the repository takes no JSON library
   dependency. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* a JSON string literal, escaped straight into [b]; a string with
   nothing to escape is copied whole *)
let add_json_str b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = n then Buffer.add_string b s
  else begin
    Buffer.add_substring b s 0 !i;
    for j = !i to n - 1 do
      match String.unsafe_get s j with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c
    done
  end;
  Buffer.add_char b '"'

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  add_json_str b s;
  Buffer.contents b

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let json_candidate source target i (m : Mapping.t) =
  let tgd_str = Fmt.str "%a" Smg_cq.Dependency.pp_tgd (Mapping.to_tgd m) in
  let exec = Mapping.outer_variants ~target m in
  let corr (c : Mapping.corr) =
    let st, sc = c.Mapping.c_src and tt, tc = c.Mapping.c_tgt in
    Printf.sprintf "{\"src\": %s, \"tgt\": %s}"
      (json_str (st ^ "." ^ sc))
      (json_str (tt ^ "." ^ tc))
  in
  String.concat ""
    [
      "    {\"rank\": ";
      string_of_int (i + 1);
      ", \"name\": ";
      json_str m.Mapping.m_name;
      ", \"score\": ";
      Printf.sprintf "%.6g" m.Mapping.score;
      ", \"outer\": ";
      string_of_bool m.Mapping.outer;
      ", \"approximate\": ";
      string_of_bool (Mapping.is_approximate m);
      ",\n     \"tgd\": ";
      json_str tgd_str;
      ",\n     \"exec_tgds\": ";
      json_list
        (fun t -> json_str (Fmt.str "%a" Smg_cq.Dependency.pp_tgd t))
        exec;
      ",\n     \"covered\": ";
      json_list corr m.Mapping.covered;
      ",\n     \"provenance\": ";
      json_list json_str m.Mapping.provenance;
      ",\n     \"source_algebra\": ";
      json_str
        (Fmt.str "%a" Smg_relational.Algebra.pp (Mapping.src_algebra source m));
      "}";
    ]

let json_diag (d : Diag.t) =
  String.concat ""
    [
      "    {\"severity\": ";
      json_str (Fmt.str "%a" Diag.pp_severity d.Diag.d_severity);
      ", \"stage\": ";
      json_str (Fmt.str "%a" Diag.pp_stage d.Diag.d_stage);
      ", \"subject\": ";
      (match d.Diag.d_subject with None -> "null" | Some s -> json_str s);
      ", \"message\": ";
      json_str d.Diag.d_message;
      "}";
    ]

let label_by_rank ms =
  List.mapi
    (fun i (m : Mapping.t) ->
      Mapping.rename (Printf.sprintf "%s#%d" m.Mapping.m_name (i + 1)) m)
    ms

(* ---- discover ----------------------------------------------------------- *)

type discover_output = {
  dj_json : string;
  dj_diags : Diag.t list;
  dj_exact : bool;
  dj_count : int;
}

let discover_json ?budget ?pool ?(meth = `Both) ?(dedup = false) ~file ~source
    ~target ~corrs () =
  let source_s = source.Discover.schema and target_s = target.Discover.schema in
  let pre = Discover.lint ~source ~target ~corrs in
  let o = Discover.discover_bounded ?budget ?pool ~source ~target ~corrs () in
  let diags = pre @ o.Discover.o_diags in
  let dedup_silent ms =
    if not dedup then ms
    else
      (Mapverify.dedup ?pool ~source:source_s ~target:target_s
         (label_by_rank ms))
        .Mapverify.rp_kept
  in
  let sem = dedup_silent o.Discover.o_mappings in
  let ric =
    match meth with
    | `Ric | `Both ->
        dedup_silent
          (Smg_ric.Baseline.generate ~source:source_s ~target:target_s ~corrs)
    | `Semantic -> []
  in
  let section ms =
    match ms with
    | [] -> "[]"
    | _ ->
        "[\n"
        ^ String.concat ",\n" (List.mapi (json_candidate source_s target_s) ms)
        ^ "\n  ]"
  in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "{\"file\": %s," (json_str file);
  line " \"exact\": %b," o.Discover.o_exact;
  (match meth with
  | `Semantic | `Both -> line " \"candidates\": %s," (section sem)
  | `Ric -> ());
  (match meth with
  | `Ric | `Both -> line " \"ric_candidates\": %s," (section ric)
  | `Semantic -> ());
  line " \"diagnostics\": %s}"
    (match diags with
    | [] -> "[]"
    | _ -> "[\n" ^ String.concat ",\n" (List.map json_diag diags) ^ "\n  ]");
  {
    dj_json = Buffer.contents b;
    dj_diags = diags;
    dj_exact = o.Discover.o_exact;
    dj_count = List.length sem + List.length ric;
  }

(* ---- exchange ----------------------------------------------------------- *)

(* decimal digits written straight into [b], without a string per number *)
let add_int b n =
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  if n = min_int then Buffer.add_string b (string_of_int n)
  else if n < 0 then begin
    Buffer.add_char b '-';
    digits (-n)
  end
  else digits n

let add_value b ~canon (v : Value.t) =
  match v with
  | Value.VInt i -> add_int b i
  | Value.VString s -> add_json_str b s
  | Value.VFloat f -> Printf.bprintf b "%.17g" f
  | Value.VBool x -> Buffer.add_string b (string_of_bool x)
  | Value.VNull k ->
      Buffer.add_string b "\"_N";
      add_int b (canon k);
      Buffer.add_char b '"'

let exchange_json ~head ?exhausted ?(diags = []) ~laconic
    (r : Engine.report) =
  let inst = r.Engine.r_target in
  let tables = List.sort String.compare (Instance.names inst) in
  (* canonical null labels: numbered by first occurrence over
     name-sorted tables, tuples in relation order, cells left to right —
     independent of the process-global label counter. That is the order
     the target is written in, so labels are assigned as it is written.
     Sized from the tuple count so a null-heavy target (about one null
     per tuple) never resizes the table. *)
  let total = Instance.total_tuples inst in
  let labels = Inttbl.create total in
  let canon k =
    let c = Inttbl.find labels k 0 in
    if c > 0 then c
    else begin
      let c = Inttbl.length labels + 1 in
      Inttbl.replace labels k c;
      c
    end
  in
  let b = Buffer.create (4096 + (32 * total)) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  Buffer.add_string b "{";
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "\"%s\": %s,\n " k v)) head;
  line "\"engine\": \"fast\",";
  line " \"laconic\": %b," laconic;
  line " \"complete\": %b," r.Engine.r_complete;
  line " \"exhausted\": %s,"
    (match exhausted with
    | None -> "null"
    | Some reason -> json_str (Fmt.str "%a" Smg_robust.Budget.pp_reason reason));
  line " \"rounds\": %d," r.Engine.r_rounds;
  line " \"egd_merges\": %d," r.Engine.r_egd_merges;
  line " \"sweep_dropped\": %d," r.Engine.r_sweep_dropped;
  line " \"target_tuples\": %d," total;
  let stat (name, (s : Smg_exchange.Obs.stats)) =
    Printf.sprintf
      "    {\"tgd\": %s, \"scanned\": %d, \"probes\": %d, \"hits\": %d, \
       \"misses\": %d, \"checks\": %d, \"satisfied\": %d, \"emitted\": %d, \
       \"nulls\": %d}"
      (json_str name) s.Smg_exchange.Obs.n_scanned s.Smg_exchange.Obs.n_probes
      s.Smg_exchange.Obs.n_hits s.Smg_exchange.Obs.n_misses
      s.Smg_exchange.Obs.n_checks s.Smg_exchange.Obs.n_satisfied
      s.Smg_exchange.Obs.n_emitted s.Smg_exchange.Obs.n_nulls
  in
  line " \"stats\": %s,"
    (match r.Engine.r_stats with
    | [] -> "[]"
    | stats -> "[\n" ^ String.concat ",\n" (List.map stat stats) ^ "\n  ]");
  (* the target, cell by cell into [b] *)
  let sep i s = if i > 0 then Buffer.add_string b s in
  let relation i name =
    sep i ",\n";
    Buffer.add_string b "  ";
    add_json_str b name;
    match Instance.relation inst name with
    | None -> Buffer.add_string b ": {}"
    | Some rel ->
        Buffer.add_string b ": {\"header\": [";
        List.iteri
          (fun j h ->
            sep j ", ";
            add_json_str b h)
          rel.Instance.header;
        Buffer.add_string b "],\n   \"tuples\": [";
        List.iteri
          (fun j tup ->
            sep j ",\n    ";
            Buffer.add_char b '[';
            for c = 0 to Array.length tup - 1 do
              sep c ", ";
              add_value b ~canon tup.(c)
            done;
            Buffer.add_char b ']')
          rel.Instance.tuples;
        Buffer.add_string b "]}"
  in
  Buffer.add_string b " \"target\": ";
  (match tables with
  | [] -> Buffer.add_string b "{}"
  | _ ->
      Buffer.add_string b "{\n";
      List.iteri relation tables;
      Buffer.add_string b "\n  }");
  Buffer.add_string b ",\n";
  line " \"diagnostics\": %s}"
    (match diags with
    | [] -> "[]"
    | _ -> "[\n" ^ String.concat ",\n" (List.map json_diag diags) ^ "\n  ]");
  Buffer.contents b
