(* Characterization of the evaluator: digests of what the simulator and
   the shadow-memory validator observably produce on every workload and
   every oracle-corpus program, pinned as constants.  Nothing else in
   the suite pins exact cycle counts, access traces or validator op
   counts, so this is what shows that a change to the evaluator's
   internals moved none of them.

   Per program (statement ids renumbered canonically first):
   - [seq]/[rev]: [Sim.Interp.run] sequentially and with every loop
     forced PARALLEL under the [Reverse] order — output, final store,
     cycles and per-loop cycles (as [%h]), statements executed;
   - [seq_trace]/[rev_trace]: the [~trace] access stream of those runs;
   - [validate]: [Runtime.Exec.run ~validate:true] on the forced-parallel
     program — its conflicts and dynamic op counts.

   A run that raises [Runtime_error] digests the message.  On a
   mismatch the failure prints the program's whole current entry. *)

open Fortran_front
open Util

type entry = {
  name : string;
  seq : string;
  seq_trace : string;
  rev : string;
  rev_trace : string;
  validate : string;
}

let pinned =
  [
    { name = "matmul";
      seq = "d05f1710d838fed3f5ddafc32f1e091a"; seq_trace = "ae97c72e0cac2390674a5f8f20c6901f";
      rev = "f62727f366bde37e0369fb183dad22b8"; rev_trace = "7b00e669964aab55e50fe548b9adf185";
      validate = "b7704d8700553fe10ad4cf799066f926" };
    { name = "jacobi";
      seq = "dc12c7d7c3c198b2b62c2eaf9c28d9e4"; seq_trace = "fb6814a49da20e6c16d0c8938e005770";
      rev = "865017d6d09ed97064bffd197c680c88"; rev_trace = "958b32535cf373c6e4e8ecefc9335841";
      validate = "ef3ad2b5f1c4428615b16b7f12381966" };
    { name = "sor";
      seq = "3448a6871b9a36f1f744c59b31271d85"; seq_trace = "7ec6af54580dfb32de40fcbb3feec6c2";
      rev = "cb1cddf671553363e115a16d5475d79b"; rev_trace = "49dfaf352a582c41ec4c609bb45d00bf";
      validate = "e6eb25c635be18af5aeb0f1c6a8be8bf" };
    { name = "recur";
      seq = "bdfac8505e4f7bd152f74c6b88da355d"; seq_trace = "25b1801c3cd6210d73034dd702316adb";
      rev = "7a34d9045e42464c15d0d1a6afc8a0fd"; rev_trace = "cf06bfa7f51eefdef5d22bcfe5e16f34";
      validate = "01826fa83642a420a334188e0153dba4" };
    { name = "daxpy";
      seq = "1160b45d304652c9e8c17d58193fd800"; seq_trace = "7062296d91f71a5fdded00fbc0a00c4d";
      rev = "c65a96e6928de8455fde811538962844"; rev_trace = "6b74aee35de255ed905f6e06cf21b2cb";
      validate = "10c807edf832bac5619f6cd2220496f6" };
    { name = "tridiag";
      seq = "f51a50cc2e6fb1f841bd6e68659f83a9"; seq_trace = "b43ff81fe36507cbb68af50c4b9d572b";
      rev = "6851cd99518e392e4f7c6a651d4e7e9a"; rev_trace = "85a5103897588551b78a680169b672de";
      validate = "c21d94815b0e4cd34851e3982c18d319" };
    { name = "sumred";
      seq = "d1bbc61d390c1be3ae9b8a1709f230f3"; seq_trace = "50a604ecfc5b3d6ad3d8471fbc6dda5f";
      rev = "4d3a85ead15b2f618a50a7427ea6bb3a"; rev_trace = "a320ee03267968d8797c477ffda88726";
      validate = "52e9636eaf5888a96194ac17380ccec9" };
    { name = "symbounds";
      seq = "f8b22a6975d6a15e01a2397d999d57f6"; seq_trace = "d9f1b61d336cd204669492c87e9a1d17";
      rev = "1602b4fe3da8b6d83402db0859452ab1"; rev_trace = "4452104aee94185e2b68e2d9103b58b9";
      validate = "98b0963ac5a05f2841b42b818a03255c" };
    { name = "indexarr";
      seq = "cc8ac7af8a1abaa4bf1903e063d40077"; seq_trace = "fbfd75ae8b30af4cfcbf15b19638a96e";
      rev = "ddca9bdac9e8e3ccf9d423b3571ff650"; rev_trace = "2f187553a87323db08e96d2a4c3784e9";
      validate = "6cfbe6bd8f944b5540208aa27560f10d" };
    { name = "callnest";
      seq = "48e15fac009b2ca1fa9911f743b13a72"; seq_trace = "64c284e3332f0dd9e5e9cc642371ca0c";
      rev = "647e6addfd5f954735c7c322930a50e3"; rev_trace = "4d8b8d48417a126afa6ae6d649c31715";
      validate = "d824a0d671db95f4cea0738d4a1b6585" };
    { name = "arrpriv";
      seq = "a38fe68c0c382b6688326b61d448f5bd"; seq_trace = "549cfc887246f91083f95a76fd011994";
      rev = "28897a7b427a91a8a78bcad4d5236972"; rev_trace = "cf29cc03659eecbe8fa64969df10ea0c";
      validate = "fa962c1765ca7f77d664a49d039f18ef" };
    { name = "redblack";
      seq = "2b7976d14b79024d6764403d8076c9a9"; seq_trace = "bf01496042d39590bf45f87946e33493";
      rev = "46e40ea3b5cd207ba6995da036696d0c"; rev_trace = "480df7da914b1f386d03e216e799a668";
      validate = "f004a06c30179fc10c75f836d6fb88e6" };
    { name = "gauss";
      seq = "e0fbfa55b28ef577f30da29ef1f7e62f"; seq_trace = "04550d3d0438e56b5a35b12fe9a06738";
      rev = "9c596046293300f1890c92c130726923"; rev_trace = "eb517f9e7a82d2f56a4e7fc186d4e191";
      validate = "5e1fe4cb26680df48c2c1f833835ca5f" };
    { name = "linesweep";
      seq = "e26a9d2a0de3246afcd20e124ffe8b12"; seq_trace = "9fe3db2a58deecba94feb2c42ad910b4";
      rev = "ae5327a9ebe58f414f181f2075d23606"; rev_trace = "8438bf96cff94f1db72df6532b209973";
      validate = "6ad7a7333c46356382affa52cd1341ab" };
    { name = "spec77x";
      seq = "1ffc101eafc92d0a0b1ffe1f263a2dce"; seq_trace = "8f81b9956d67fe7815e7a11ca9dbd131";
      rev = "40772fd22fba891187a811b690cc47b9"; rev_trace = "d817002c485bb87fd5353c6f7c9bb93c";
      validate = "17928fc6ae2562c07b00ad753c2c4c3e" };
    { name = "sympro";
      seq = "db9c642c469e11e09d50af4cd76b8338"; seq_trace = "440dcfe86ca7b092ba97e0075c212bf6";
      rev = "df14479684d96bcb6340f43e1396fc09"; rev_trace = "14570cafb57f3f5c4ff38d100099a56e";
      validate = "facd61f328afab1f09caf6a0b1b4c9f8" };
    { name = "shallow";
      seq = "d57093463e92009a47256dea493b9eee"; seq_trace = "8a569b4f463b0faf7c20db04566f8f12";
      rev = "a02026554b06b2c3ce7ddc936bcddd43"; rev_trace = "42eb2b404a112a372d06c0e5f5860b7f";
      validate = "46c9e18f66117fb6dd47baa925ad1cac" };
    { name = "dependence-carried-flow.f";
      seq = "033a38dd95f8a4723850870530954708"; seq_trace = "b6f32033c795f0ce397a98ac9a7defd6";
      rev = "38a5bf5174eb96c420a5adc924b6bb2a"; rev_trace = "1a18454961cc3db4519b38accea07dc4";
      validate = "5730ace63fc4a964f18eca32102e0151" };
    { name = "runtime-aux-induction.f";
      seq = "8b321ad8086f91c7d22ad441fc77d008"; seq_trace = "d41d8cd98f00b204e9800998ecf8427e";
      rev = "eb7c93219813ba305d399104e021289c"; rev_trace = "d41d8cd98f00b204e9800998ecf8427e";
      validate = "3c0121af16c35acb06f9cb167e2d4b4b" };
    { name = "semantics-expand-induction.f";
      seq = "4be80f427d399f1354471dd460a13c7c"; seq_trace = "47b6cccf8e56d8a51d2f713f852edc61";
      rev = "4bbc940edc6557f018a1498efda1d546"; rev_trace = "05c76d69377fd85c17cddbd2a7800766";
      validate = "8ad71d033fb2f14e623505f0a6eb4df6" };
    { name = "semantics-expand-stride.f";
      seq = "eaa3cfd7eef8dee028e8157540038eb3"; seq_trace = "28871546ce95962fceff75c71be9b128";
      rev = "278e8c5f2f883508ba4140664ca8195a"; rev_trace = "b7938ff0c581d3b72c78783887d91284";
      validate = "a9c46aad77166b08306df6dacc698d41" };
    { name = "semantics-reverse-stride.f";
      seq = "92ecf78bf4696a85c84bc8bcd2be80ba"; seq_trace = "5628936ad0bae5ec9f444ce30c4ed442";
      rev = "192a69123d1aecde24e5e701f6b7357d"; rev_trace = "190906cc261359de1da83e06d20e05af";
      validate = "f51095984224c971c78aa760484d8949" };
  ]

(* A running digest: fields are appended to a buffer that is folded
   into its own digest whenever it grows past a bound, so a trace of
   millions of accesses hashes in bounded memory. *)
let hasher () = Buffer.create 4096

let add h s =
  Buffer.add_string h s;
  Buffer.add_char h '\n';
  if Buffer.length h > 1 lsl 20 then begin
    let d = Digest.string (Buffer.contents h) in
    Buffer.clear h;
    Buffer.add_string h d
  end

let hex h = Digest.to_hex (Digest.string (Buffer.contents h))

let add_store h store =
  List.iter
    (fun (name, vals) ->
      add h
        (name ^ "=" ^ String.concat "," (List.map (Printf.sprintf "%h") vals)))
    store

let sim_digests ~honor_parallel prog =
  let out = hasher () and tr = hasher () in
  let trace (a : Sim.Interp.access) =
    add tr
      (Printf.sprintf "%d %s %d %b %d %s" a.Sim.Interp.a_sid a.Sim.Interp.a_var
         a.Sim.Interp.a_off a.Sim.Interp.a_write a.Sim.Interp.a_instance
         (String.concat ","
            (List.map
               (fun (sid, k) -> Printf.sprintf "%d:%d" sid k)
               a.Sim.Interp.a_iters)))
  in
  (match
     Sim.Interp.run ~honor_parallel ~par_order:Sim.Interp.Reverse ~trace prog
   with
  | o ->
    List.iter (add out) o.Sim.Interp.output;
    add out (Printf.sprintf "cycles %h" o.Sim.Interp.cycles);
    List.iter
      (fun (sid, c) -> add out (Printf.sprintf "loop %d %h" sid c))
      o.Sim.Interp.loop_cycles;
    add out (Printf.sprintf "stmts %d" o.Sim.Interp.stmts_executed);
    add_store out o.Sim.Interp.final_store
  | exception Sim.Interp.Runtime_error m -> add out ("error: " ^ m));
  (hex out, hex tr)

let validate_digest prog =
  let h = hasher () in
  (match Runtime.Exec.run ~validate:true prog with
  | o ->
    List.iter
      (fun c -> add h (Runtime.Exec.conflict_to_string c))
      o.Runtime.Exec.conflicts;
    let ops = o.Runtime.Exec.ops in
    add h
      (Printf.sprintf "ops %h %h %h %h %h" ops.Perf.Machine.flops
         ops.Perf.Machine.mems ops.Perf.Machine.intrinsics
         ops.Perf.Machine.loop_iters ops.Perf.Machine.calls)
  | exception Runtime.Exec.Runtime_error m -> add h ("error: " ^ m));
  hex h

let programs () =
  List.map (fun w -> (w.Workloads.name, Workloads.program w)) Workloads.all
  @ List.map
      (fun f ->
        match Oracle.Corpus.load f with
        | Ok e -> (Filename.basename f, e.Oracle.Corpus.e_program)
        | Error e -> Alcotest.failf "%s: %s" f e)
      (Oracle.Corpus.files "corpus")

let current name prog =
  let prog = Ast.renumber_program prog in
  let forced = Ast.renumber_program (Runtime.Exec.force_parallel prog) in
  let seq, seq_trace = sim_digests ~honor_parallel:false prog in
  let rev, rev_trace = sim_digests ~honor_parallel:true forced in
  { name; seq; seq_trace; rev; rev_trace; validate = validate_digest forced }

let show e =
  Printf.sprintf
    "{ name = %S;\n  seq = %S; seq_trace = %S;\n  rev = %S; rev_trace = %S;\n  validate = %S };"
    e.name e.seq e.seq_trace e.rev e.rev_trace e.validate

let pinned_digests () =
  let progs = programs () in
  let moved =
    List.filter_map
      (fun (name, prog) ->
        let now = current name prog in
        if List.mem now pinned then None else Some (show now))
      progs
  in
  if moved <> [] then
    Alcotest.failf "%d programs moved or are not pinned; now:\n%s"
      (List.length moved) (String.concat "\n" moved);
  check_int "every workload and corpus program is pinned"
    (List.length progs) (List.length pinned)

let suite = [ case "simulator and validator digests are pinned" pinned_digests ]
