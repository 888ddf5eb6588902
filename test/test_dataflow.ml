open Fortran_front
open Scalar_analysis
open Util

let setup src =
  let u = parse_unit src in
  let tbl = Symbol.build u in
  let ctx = Defuse.make tbl u in
  let cfg = Cfg.build u in
  (u, ctx, cfg)

let assign_sid cfg var =
  let found = ref None in
  List.iter
    (fun n ->
      match Cfg.stmt_of cfg n with
      | Some { Ast.node = Ast.Assign (Ast.Var v, _); sid; _ } when v = var ->
        found := Some sid
      | _ -> ())
    (Cfg.nodes cfg);
  Option.get !found

let stmt_with cfg pred =
  List.find_map
    (fun n ->
      match Cfg.stmt_of cfg n with
      | Some s when pred s -> Some s.Ast.sid
      | _ -> None)
    (Cfg.nodes cfg)
  |> Option.get

(* Pinned digests of the scalar analyses, so a change to their
   algorithms shows it reproduces every result.  Per program (statement
   ids renumbered canonically), each field digests a printed form over
   every unit and every CFG node in [Cfg.nodes] order:
   - [reach]: [Reaching.reaching_in];
   - [chains]: [Reaching.chains];
   - [dom] / [pdom]: the dominator and postdominator [idom];
   - [control]: [Control_dep.compute];
   - [live]: [Liveness.live_in] and [live_out] of every statement;
   - [consts]: [Constants.const_of_var] of every symbol at every
     statement where it is proved constant (reals as [%h]).
   The programs: the 17 workloads, [test/corpus], every stress profile
   at smoke scale, the full [deep] profile, and three GOTO programs —
   a backward loop that exits, an IF branch into a cycle that never
   exits, and a bare two-statement cycle. *)

type pin = {
  pname : string;
  reach : string;
  chains : string;
  dom : string;
  pdom : string;
  control : string;
  live : string;
  consts : string;
}

let pinned_scalar =
  [
    { pname = "matmul";
      reach = "532f3c0174bb00fa52b24641b8c2d81a"; chains = "3207ca6146f9aa17f284ef672ed01af2";
      dom = "123151bb4707c4d48c17f307e36170cd"; pdom = "63e3e02b17440e88cac8269d0d6ed868";
      control = "5d84d14e812af8b13f553bc64a85b989"; live = "31b76ee47af687516f424425cc2a7314";
      consts = "c07c17400bfd73c52205016236052c28" };
    { pname = "jacobi";
      reach = "f49432d23631f05a62f3ca5ff2697888"; chains = "33f8aa6576befe60b0a776ae75fc332d";
      dom = "b42b8eb8bd7cffceee9f94fb08cae3d3"; pdom = "0700134a8a78157fc3e5a60828d40a44";
      control = "5f042f10923706884b309c8acaf8d892"; live = "e5dad99dba5c72bc558a3b83caf68a42";
      consts = "7e0bd046f985d65f830e33fbbf6293ae" };
    { pname = "sor";
      reach = "ee3729714ec0e728705801fbf4c63e9d"; chains = "e6fda8ae567bba23e6c7019707289cf1";
      dom = "bcdec63ab7cf7e8712acaf519c9ea513"; pdom = "be60cb07b8bc60ff14f3e83a26657bc9";
      control = "369ae6f511884c1a51f593d92866b4ad"; live = "5636b44aef5241dc89091a3337856bca";
      consts = "b48b8452ce8c39ad2027ff557a47e8fc" };
    { pname = "recur";
      reach = "12cf7208d244ec05cfe5ee534075b80c"; chains = "7438feb6f6f7323cffe9f702a41e1418";
      dom = "d9399810565ab945d8a2174bfd4abc13"; pdom = "4a90ae8318865421ab23fd9b9895eb58";
      control = "d42ce41621fbde9b05410e87e52881f2"; live = "8e30cc658fdd31cafe657696d694d0fe";
      consts = "8a04652c63847d6382330c6e9d811363" };
    { pname = "daxpy";
      reach = "bc7035a671ad5b52e5bc25ca293c7318"; chains = "e087a1dba3b4c692620a834acdf2920b";
      dom = "7742a46e1d8de935f0c83a80f2ebc853"; pdom = "2112bd641bfe1ea033c2524cfe257731";
      control = "e50bff1652f109b485038ae25b48f171"; live = "c285de101603a6361b8cf0a8a062565f";
      consts = "49457b83f8f6605445ec3b9ae21b05ee" };
    { pname = "tridiag";
      reach = "e80d86ef866c4317f52204f0b2411a37"; chains = "4e721f5bfb587d39bbb209f2d3450750";
      dom = "e141d72360761c5450c57d38297ec3fa"; pdom = "771a5792f809410fe7e906130dd3d3f7";
      control = "00fa9981fcd5d86eaa45af861490d02f"; live = "a7b22ca202a80ec6e68d8c698d53fe62";
      consts = "3a2404364bd9b89f4d43a33b07821c66" };
    { pname = "sumred";
      reach = "36b71f013750684c0be91d5befacc3dc"; chains = "65827c0273afc98ab14868a8bbd0b3d2";
      dom = "22edbcda7bec1bf0bb7f5c6c36623ad3"; pdom = "795f3faad1c90accf049ead3d666ffa5";
      control = "f50d8135df8e077a3a874ce868dc93cb"; live = "dfb1478cfe0cbbf705695ddf1da0eb2d";
      consts = "c9a8b32a335460f7a0f1d52dccdfb987" };
    { pname = "symbounds";
      reach = "a36dd2592b84ea970c695e6f34519593"; chains = "23d9da8d15ce06fac3a904f6d8a738f8";
      dom = "cd4d627304ed937ee9762620c631445d"; pdom = "bcfc7248c7faa846308e31ec3cc66666";
      control = "8f624187e0513fefe59821a63f03971a"; live = "ab0734ed2aa2ee9dcb9bfb1e9ceb12c7";
      consts = "043cc9b6fe1efc56e99ea72ad85c1a5c" };
    { pname = "indexarr";
      reach = "00ed004bc03fcf0d7f9de669836c2aef"; chains = "287720c860cf7bd37ccae2f40b84a74f";
      dom = "fdba86c381cd728abede22fc3eb06b1a"; pdom = "a2e84310527afdc0de4b24ba9daf82ec";
      control = "2c0ae9ef0ec6029cf7e1819f351fefaf"; live = "0d131bd90eb28030fcb617f2b4f4da25";
      consts = "6fdcff7022d825c6e3a687dc1d7fc3b8" };
    { pname = "callnest";
      reach = "7944a493ea7cb92d2fe578fb0e094baf"; chains = "b33d17a78869e1a72382b8bbd122ad33";
      dom = "4a1eb5c67fe5fcaa5b61bfbd8ee85fc2"; pdom = "769642d603699355f05878b5c393b708";
      control = "66f0a0f8a1b3e0eb0c69e2d52dfa99d8"; live = "3d70aca98fce38453685306a00f2fe13";
      consts = "3b1dc6f1a69a59b5905aad1fa300d789" };
    { pname = "arrpriv";
      reach = "6a7bfef2d68d9b87b89234a28319cb74"; chains = "034602a14398af55fcf5023fefd2fabb";
      dom = "497f5a17dea7729687ca1fff85e00ba5"; pdom = "9d85498ee7e720dc4fd319d05efd63bc";
      control = "9f30e328ed5f5e42ef9c0b5822c767fb"; live = "98181ddf7006eac43420bda704059ab1";
      consts = "9006033117df71a58513a445f8ae8f93" };
    { pname = "redblack";
      reach = "2d4846be963478ff3348f10a7516f318"; chains = "e8f1a2ff7c12dc596e71fd0527d370c5";
      dom = "556f9ae158c92ece61fa83c3914ab216"; pdom = "5098eed41b994aa51e427f308dbbd239";
      control = "26fb359dc00a65b1bfa4c9316f7b2fa8"; live = "b9d0cd11e8c084cbaaf48a9dc6084a5b";
      consts = "a47b7153a48185bb0604740fc3a4e219" };
    { pname = "gauss";
      reach = "f3441b1dee26d1df054a743f377ddc5d"; chains = "44201e68197f883ab3628fe483f32bcd";
      dom = "89952d05e7b4e317fff3734d195a96ce"; pdom = "0e54ea906595fb442a0d24c6b99a87bd";
      control = "96838be401f766b1880484881fe08954"; live = "1f7816adba30bd10c0bc67fd5a25e388";
      consts = "4004bc7cbfca97ac86e4f69c1757ab8d" };
    { pname = "linesweep";
      reach = "56d3c7a547219ba33c9c0d3b52adc7a4"; chains = "e2b4a7315fd954bdd47d4590db21f3f3";
      dom = "1d96c4908b28bba23aff6b99d1f08919"; pdom = "3b8c6a294bd983d2c0ec0ccf3f6b402c";
      control = "d8510703dc95d8e2961b765c72b850b2"; live = "6b63c6647fdb35f91cd0b2051f1dae8d";
      consts = "4579936f493bec89f682b80cdc6703a7" };
    { pname = "spec77x";
      reach = "6419f5eef66be1836ab878bc72eb86d8"; chains = "ff45ef9b61bce012b027a37ea17b92ca";
      dom = "934186714eae96a27763c43671edbfc7"; pdom = "cb7267ef1d2973e6fcc4b88b99d1ae5e";
      control = "4cbf0a763230de6b4ba06be9ed143b99"; live = "f5256d41d44087561aade062d7727694";
      consts = "fb11c8b9a76a084243c609fbd17f1e44" };
    { pname = "sympro";
      reach = "6e920271d982e0bad421238d2f53d4d7"; chains = "c0b66cc5d7e9ec018dd1f7a511fc95b8";
      dom = "4aa557631a69069c0dadf0748477cd2c"; pdom = "0c30743cb63fbc4544e5516f572db5fc";
      control = "a65459bd343ff1fe1bcdb1f94e37ad11"; live = "dcef4dcd34e8f7076389a51a48d3aa2a";
      consts = "aa0aaf38e3f74038b77f4e9fbd424727" };
    { pname = "shallow";
      reach = "9ec4a7a23819b5b68f17299c71bc55dc"; chains = "0d643e424abba12a05a3a801da22304c";
      dom = "2beffabded54419020e21facd9d593d7"; pdom = "5f3318e094f9e46e0b5d42e9b9ae4a58";
      control = "5fad5e56d7b467f42afe845b44610444"; live = "e07569ff9f447b20dd47ea8ed292eb2f";
      consts = "3abd388724478174a36b2edcef05dd2f" };
    { pname = "dependence-carried-flow.f";
      reach = "bb8c11c251f62ebbe5bd42e4e72a56c0"; chains = "d895a168cc287716964242c646a098e8";
      dom = "fe9c51fad1dd0925a761a3f936c140f9"; pdom = "c7bd5e9199e54b613c62accba3b803af";
      control = "4d3745dee9c7db4454b1f0a6d559d5ff"; live = "21844656588c09e55d48b058fb5afce5";
      consts = "320abec41be2a7d62e5b1cc8f0fd9c6f" };
    { pname = "runtime-aux-induction.f";
      reach = "bf81147917d295a2752c23bfc201553e"; chains = "201e5a756a01fd4dbe5873b4b1779476";
      dom = "f30abb7e1cd61c1c1f2da7f0e602cbbb"; pdom = "9ef299d4a0133468d3f6dd1f82dc4f12";
      control = "2458ea6db5da8b9112b22ca1d1bb3d1c"; live = "dae67adffaad9a3b69bb7849440e0e56";
      consts = "320abec41be2a7d62e5b1cc8f0fd9c6f" };
    { pname = "semantics-expand-induction.f";
      reach = "85a14abb110652f707372a7edae42da9"; chains = "f2e9a7348c6f7effa6431284b7ca23fc";
      dom = "0dcf8015fd5aa661c4cb3dc2199dd27f"; pdom = "44c69a5c1d6926d0b98c61274c6a2684";
      control = "efdf02aece6a45f2943a63a4ddc271a2"; live = "5b38d4b289fd16ae72c502b6b6ec23de";
      consts = "320abec41be2a7d62e5b1cc8f0fd9c6f" };
    { pname = "semantics-expand-stride.f";
      reach = "386ae4e177dae1b8eb3eacb9e93cf67b"; chains = "714393c8413b43b9ef02dde7a30e15d2";
      dom = "8ed7eaf64b17612570535c01eb76ce85"; pdom = "2cc95afc850ec90c013a49f69c21abfa";
      control = "59fe9ec26d84b560719fbbffe573e942"; live = "1873e477a72e9a960826f90cbcbaa1cb";
      consts = "320abec41be2a7d62e5b1cc8f0fd9c6f" };
    { pname = "semantics-reverse-stride.f";
      reach = "bb8c11c251f62ebbe5bd42e4e72a56c0"; chains = "d895a168cc287716964242c646a098e8";
      dom = "fe9c51fad1dd0925a761a3f936c140f9"; pdom = "c7bd5e9199e54b613c62accba3b803af";
      control = "4d3745dee9c7db4454b1f0a6d559d5ff"; live = "21844656588c09e55d48b058fb5afce5";
      consts = "320abec41be2a7d62e5b1cc8f0fd9c6f" };
    { pname = "stress:deep@smoke";
      reach = "48e878ae872efb45168430ef250308e1"; chains = "a881f8c974d591a3778bc95915be6493";
      dom = "3b4b7364ca422488cd0e7f82a1105d5f"; pdom = "bbca6c8b0879df51e04e6d08049117f8";
      control = "ba5239fdc57967661f5c868b30e943fe"; live = "ed3bd9364256e813e0a7158ac4695da0";
      consts = "52ac9aa5ab89929a5ed0b0b4ec5093f5" };
    { pname = "stress:wide@smoke";
      reach = "fecdf820ac389eb8537a7b750e2cb128"; chains = "b60aabaabdae80c0e0358b5d17b5ddf4";
      dom = "c58b880c723f6558cc67dacb294fcd8d"; pdom = "0aae32138b7e0488247d3f3b4bcf7e7a";
      control = "7e4f3747e788f2cfce136f5e8ace8292"; live = "bb3a09e88d389074952b6341cfeb544f";
      consts = "05b59287299ad08e2ede54bdfe9ab9ae" };
    { pname = "stress:many-units@smoke";
      reach = "059234da4da6c76e427512715f24b826"; chains = "8283a5a11214cefa3f2d8e0893abe965";
      dom = "237b27dd1847eb8339a013210a92bc3a"; pdom = "76f4eebc2ab9b2e7856a9b67e15529d5";
      control = "8817c2de98e623873121da8fec1cf522"; live = "cf009b98f465dd688c88acd93584f1dc";
      consts = "3411a357c43aae110e4f1a2123380cdf" };
    { pname = "stress:deep";
      reach = "7d7da289e2010daa7f725e12f543babe"; chains = "bceb3f3e373ac75aaf9cdd94bc8805a9";
      dom = "9fc807c5bd6e33d6f2e764547c5b1514"; pdom = "76ef434159d9e7c7d2c5738e7440b4a0";
      control = "5d37646f9b6b129f20ac669457b10291"; live = "d090acd085e280df5514c34afd02b7e5";
      consts = "5f4a6d84092dd9e61fb07b0df94a244d" };
    { pname = "goto-exits";
      reach = "d0a2e2687d5bb76d1a3d0a3929170c55"; chains = "32a7c03b76cdc5dd5e992bfd3e6b56c4";
      dom = "da2d94327c86213ec97f66ce8fc1f38c"; pdom = "d5c1389f1cfeaff447b468b5b1127f9f";
      control = "f85aeb5f6f92b3f7afb1e1ab7a50f401"; live = "7add769608ac78307b43f20684099286";
      consts = "8ff0781b77145cb49de2d35b2daf6ed5" };
    { pname = "goto-never-exits";
      reach = "623c23cadf0beefb5a352cb34123e60e"; chains = "10bf2517d0b3cf21bb378fdff08509ba";
      dom = "293e0a6410b1f93432e3bf6b68648ac1"; pdom = "f290c11eb43fc60349626b2c8c45322e";
      control = "7ff1b748e693314897fe257458c3baf8"; live = "59d83c32db881355c3a83b0b4c0831bf";
      consts = "12723b075b40f0f1716bffbc167b82e4" };
    { pname = "goto-bare-cycle";
      reach = "59cc006d7a184b670ba00f47e4234a9e"; chains = "bafa85990de71d7fad320cacec3ec1d1";
      dom = "faa06733bd926c0b7f5195b215c8b461"; pdom = "18a8201cdcf5cb0c4285d9f03568b3dd";
      control = "91c2a1eb5ed609c018ad4bcac87f43f5"; live = "c32b80fb5683b53fbdc37aefd524e33e";
      consts = "91c2a1eb5ed609c018ad4bcac87f43f5" };
  ]

let goto_programs =
  [
    ( "goto-exits",
      "      PROGRAM G1\n      K = 0\n 10   K = K + 1\n      IF (K .LT. 5) GOTO 10\n      PRINT *, K\n      END\n" );
    ( "goto-never-exits",
      "      PROGRAM G2\n      K = 0\n      M = 1\n      IF (M .GT. 0) THEN\n        GOTO 20\n      ENDIF\n      K = 2\n      STOP\n 20   K = K + M\n      M = K\n      GOTO 20\n      X = 1\n      END\n" );
    ("goto-bare-cycle", "      PROGRAM G3\n 10   K = K + 1\n      GOTO 10\n      END\n");
  ]

let scalar_programs () =
  let open Oracle in
  List.map (fun w -> (w.Workloads.name, Workloads.program w)) Workloads.all
  @ List.map
      (fun f ->
        match Corpus.load f with
        | Ok e -> (Filename.basename f, e.Corpus.e_program)
        | Error e -> Alcotest.failf "%s: %s" f e)
      (Corpus.files "corpus")
  @ List.map
      (fun (p : Stress.profile) ->
        ("stress:" ^ p.Stress.sp_name ^ "@smoke", Stress.generate (Stress.smoke p)))
      Stress.all
  @ [ ("stress:deep", Stress.generate Stress.deep) ]
  @ List.map (fun (name, src) -> (name, parse src)) goto_programs

let node_str n = Format.asprintf "%a" Cfg.pp_node n

let def_str (d : Reaching.def) = node_str d.Reaching.def_at ^ "/" ^ d.Reaching.def_var

let const_str = function
  | Constants.Cint n -> string_of_int n
  | Constants.Creal f -> Printf.sprintf "%h" f
  | Constants.Clog b -> string_of_bool b

let scalar_pin pname (prog : Ast.program) =
  let prog = Ast.renumber_program prog in
  let bufs = Array.init 7 (fun _ -> Buffer.create 4096) in
  let line i s =
    Buffer.add_string bufs.(i) s;
    Buffer.add_char bufs.(i) '\n'
  in
  List.iter
    (fun (u : Ast.program_unit) ->
      Array.iter (fun b -> Buffer.add_string b ("unit " ^ u.Ast.uname ^ "\n")) bufs;
      let tbl = Symbol.build u in
      let ctx = Defuse.make tbl u in
      let cfg = Cfg.build u in
      let nodes = Cfg.nodes cfg in
      let sids = List.filter_map (function Cfg.Stmt s -> Some s | _ -> None) nodes in
      let r = Reaching.analyze ctx cfg in
      List.iter
        (fun n ->
          line 0
            (node_str n ^ ": "
            ^ String.concat " " (List.map def_str (Reaching.reaching_in r n))))
        nodes;
      List.iter
        (fun (d, use) -> line 1 (Printf.sprintf "%s -> s%d" (def_str d) use))
        (Reaching.chains r);
      let idoms i dom =
        List.iter
          (fun n ->
            line i
              (node_str n ^ " "
              ^ match Dominators.idom dom n with Some m -> node_str m | None -> "-"))
          nodes
      in
      idoms 2 (Dominators.dominators cfg);
      idoms 3 (Dominators.postdominators cfg);
      List.iter
        (fun (e : Control_dep.edge) ->
          line 4 (Printf.sprintf "s%d -> s%d" e.Control_dep.branch e.Control_dep.dependent))
        (Control_dep.compute cfg);
      let l = Liveness.analyze ctx cfg in
      List.iter
        (fun s ->
          line 5
            (Printf.sprintf "s%d in=%s out=%s" s
               (String.concat "," (Liveness.live_in l s))
               (String.concat "," (Liveness.live_out l s))))
        sids;
      let c = Constants.analyze ctx cfg in
      let names =
        List.sort String.compare
          (List.map (fun (i : Symbol.info) -> i.Symbol.name) (Symbol.infos tbl))
      in
      List.iter
        (fun s ->
          List.iter
            (fun v ->
              match Constants.const_of_var c s v with
              | Some k -> line 6 (Printf.sprintf "s%d %s=%s" s v (const_str k))
              | None -> ())
            names)
        sids)
    prog.Ast.punits;
  let d i = Digest.to_hex (Digest.string (Buffer.contents bufs.(i))) in
  { pname; reach = d 0; chains = d 1; dom = d 2; pdom = d 3; control = d 4;
    live = d 5; consts = d 6 }

let show_pin p =
  Printf.sprintf
    "    { pname = %S;\n      reach = %S; chains = %S;\n      dom = %S; pdom = %S;\n      control = %S; live = %S;\n      consts = %S };"
    p.pname p.reach p.chains p.dom p.pdom p.control p.live p.consts

let scalar_digests_pinned () =
  let progs = scalar_programs () in
  let moved =
    List.filter_map
      (fun (name, prog) ->
        let now = scalar_pin name prog in
        if List.mem now pinned_scalar then None else Some (show_pin now))
      progs
  in
  if moved <> [] then
    Alcotest.failf "%d programs moved or are not pinned; now:\n%s"
      (List.length moved) (String.concat "\n" moved);
  check_int "every program is pinned" (List.length progs) (List.length pinned_scalar)

(* Random programs for the properties below: an oracle-generator
   program whose statements get labels, and whose blocks get GOTOs to
   them, at random — backward and forward jumps, jumps into and out of
   loops, cycles that never exit, dead code after a jump. *)
let with_gotos rng (p : Ast.program) =
  let labels = ref [] in
  let label s =
    if s.Ast.label = None && Random.State.int rng 6 = 0 then begin
      let l = 900 + List.length !labels in
      labels := l :: !labels;
      { s with Ast.label = Some l }
    end
    else s
  in
  let rec block ss =
    let ss = List.map stmt ss in
    if !labels = [] || Random.State.int rng 3 > 0 then ss
    else
      let l = List.nth !labels (Random.State.int rng (List.length !labels)) in
      let goto = Ast.mk (Ast.Goto l) in
      let jump =
        if Random.State.bool rng then goto
        else
          Ast.mk
            (Ast.If
               ([ (Ast.Bin (Ast.Gt, Ast.Var "N", Ast.Int (Random.State.int rng 40)), [ goto ]) ],
                []))
      in
      let k = Random.State.int rng (List.length ss + 1) in
      List.filteri (fun i _ -> i < k) ss @ (jump :: List.filteri (fun i _ -> i >= k) ss)
  and stmt s =
    match s.Ast.node with
    | Ast.If (brs, els) ->
      { s with Ast.node = Ast.If (List.map (fun (c, b) -> (c, block b)) brs, block els) }
    | Ast.Do (h, b) -> { s with Ast.node = Ast.Do (h, block b) }
    | _ -> s
  in
  let units =
    List.map
      (fun (u : Ast.program_unit) -> { u with Ast.body = Ast.map_stmts label u.Ast.body })
      p.Ast.punits
  in
  { Ast.punits = List.map (fun u -> { u with Ast.body = block u.Ast.body }) units }

let gen_goto_program : Ast.program QCheck2.Gen.t =
  QCheck2.Gen.make_primitive
    ~gen:(fun st -> with_gotos st (Oracle.Gen.program ~cfg:Oracle.Gen.small st))
    ~shrink:(fun _ -> Seq.empty)

let units_of (p : Ast.program) =
  List.map
    (fun u ->
      let ctx = Defuse.make (Symbol.build u) u in
      (ctx, Cfg.build u))
    p.Ast.punits

let matches_references =
  QCheck2.Test.make ~count:60
    ~name:"reaching definitions and dominators equal the set-based references"
    ~print:Pretty.program_to_string gen_goto_program (fun p ->
      List.for_all
        (fun (ctx, cfg) ->
          let nodes = Cfg.nodes cfg in
          let r = Reaching.analyze ctx cfg in
          let reference = Dataflow.solve cfg (Ref_scalar.reaching_problem ctx cfg) in
          let fail what n =
            QCheck2.Test.fail_reportf "%s differs at %s" what (node_str n)
          in
          List.iter
            (fun n ->
              if Reaching.reaching_in r n <> Ref_scalar.reaching_in reference n then
                fail "reaching_in" n)
            nodes;
          if Reaching.chains r <> Ref_scalar.chains ctx cfg reference then
            QCheck2.Test.fail_report "chains differ";
          List.iter
            (fun (what, t, sets) ->
              List.iter
                (fun b ->
                  if Dominators.idom t b <> Ref_scalar.idom sets b then
                    fail (what ^ " idom") b;
                  List.iter
                    (fun a ->
                      if Dominators.dominates t a b <> Ref_scalar.NodeSet.mem a (sets b) then
                        fail (what ^ " of " ^ node_str a) b)
                    nodes)
                nodes)
            [
              ("dominators", Dominators.dominators cfg, Ref_scalar.dominators cfg);
              ("postdominators", Dominators.postdominators cfg, Ref_scalar.postdominators cfg);
            ];
          true)
        (units_of p))

(* The first statement and symbol where constant propagation differs
   from the map-based reference, if any: every symbol of the unit at
   every statement. *)
let constants_mismatch (ctx, cfg) =
  let c = Constants.analyze ctx cfg in
  let reference = Dataflow.solve cfg (Ref_scalar.constants_problem ctx cfg) in
  let names = List.map (fun (i : Symbol.info) -> i.Symbol.name) (Symbol.infos (Defuse.table ctx)) in
  List.find_map
    (fun n ->
      match Cfg.stmt_of cfg n with
      | None -> None
      | Some s ->
        let sid = s.Ast.sid in
        List.find_map
          (fun v ->
            let got = Constants.const_of_var c sid v
            and want = Ref_scalar.const_of_var ctx reference sid v in
            (* [compare], not [=]: a NaN constant equals itself *)
            if compare got want = 0 then None
            else Some (Printf.sprintf "%s at s%d" v sid))
          names)
    (Cfg.nodes cfg)

let constants_match_reference =
  QCheck2.Test.make ~count:60 ~name:"constant propagation equals the map-based reference"
    ~print:Pretty.program_to_string gen_goto_program (fun p ->
      List.for_all
        (fun unit ->
          match constants_mismatch unit with
          | None -> true
          | Some where -> QCheck2.Test.fail_reportf "const_of_var differs: %s" where)
        (units_of p))

(* The same on the stress profiles, smoke and full. *)
let constants_match_reference_stress () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun unit ->
          Option.iter
            (Alcotest.failf "%s: const_of_var differs from the reference: %s" name)
            (constants_mismatch unit))
        (units_of prog))
    (List.filter
       (fun (name, _) -> String.starts_with ~prefix:"stress:" name)
       (scalar_programs ()))

(* A solution is a fixed point when every node's input is the join of
   its flow predecessors' outputs (from the boundary value at the
   boundary node, from [init] elsewhere) and its output is the
   transfer of its input.  The iteration is monotone when each node's
   successive outputs only rise ([leq old next]). *)
let monotone_fixed_point cfg ~leq (p : 'a Dataflow.problem) =
  let last = Hashtbl.create 64 and rising = ref true in
  let transfer n x =
    let o = p.Dataflow.transfer n x in
    (match Hashtbl.find_opt last n with
    | Some prev when not (leq prev o) -> rising := false
    | _ -> ());
    Hashtbl.replace last n o;
    o
  in
  let r = Dataflow.solve cfg { p with Dataflow.transfer } in
  let flow_preds, boundary =
    match p.Dataflow.direction with
    | Dataflow.Forward -> (Cfg.preds cfg, Cfg.Entry)
    | Dataflow.Backward -> (Cfg.succs cfg, Cfg.Exit)
  in
  !rising
  && List.for_all
       (fun n ->
         let base = if Cfg.node_equal n boundary then p.Dataflow.boundary else p.Dataflow.init in
         let i =
           List.fold_left (fun acc m -> p.Dataflow.join acc (Dataflow.output r m)) base (flow_preds n)
         in
         p.Dataflow.equal (Dataflow.input r n) i
         && p.Dataflow.equal (Dataflow.output r n)
              (p.Dataflow.transfer (Option.get (Cfg.index cfg n)) i))
       (Cfg.nodes cfg)

let solutions_are_fixed_points =
  QCheck2.Test.make ~count:60
    ~name:"forward and backward solves rise monotonically to a fixed point"
    ~print:Pretty.program_to_string gen_goto_program (fun p ->
      List.for_all
        (fun (ctx, cfg) ->
          monotone_fixed_point cfg ~leq:Ref_scalar.DefSet.subset
            (Ref_scalar.reaching_problem ctx cfg)
          && monotone_fixed_point cfg ~leq:Ref_scalar.SSet.subset
               (Ref_scalar.liveness_problem ctx cfg))
        (units_of p))

(* The first statement where the bit-set liveness differs from the
   string-set reference, under either escaping boundary, if any. *)
let liveness_mismatch (ctx, cfg) =
  List.find_map
    (fun all_escape ->
      let l = Liveness.analyze ~all_escape ctx cfg in
      let reference = Dataflow.solve cfg (Ref_scalar.liveness_problem ~all_escape ctx cfg) in
      List.find_map
        (fun n ->
          match Cfg.stmt_of cfg n with
          | None -> None
          | Some s ->
            let sid = s.Ast.sid in
            if Liveness.live_in l sid <> Ref_scalar.live_in reference sid then
              Some (Printf.sprintf "live_in at s%d (all_escape %b)" sid all_escape)
            else if Liveness.live_out l sid <> Ref_scalar.live_out reference sid then
              Some (Printf.sprintf "live_out at s%d (all_escape %b)" sid all_escape)
            else None)
        (Cfg.nodes cfg))
    [ false; true ]

let liveness_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"liveness equals the string-set reference"
    ~print:Pretty.program_to_string gen_goto_program (fun p ->
      List.for_all
        (fun unit ->
          match liveness_mismatch unit with
          | None -> true
          | Some where -> QCheck2.Test.fail_reportf "liveness differs: %s" where)
        (units_of p))

(* The same on the stress profiles, under intraprocedural contexts and
   under the interprocedural ones, whose CALLs kill scalars. *)
let liveness_matches_reference_stress () =
  List.iter
    (fun (name, prog) ->
      let summary = Interproc.Summary.analyze prog in
      let interproc =
        List.map
          (fun u ->
            let env = Interproc.Summary.env_for summary u in
            (env.Dependence.Depenv.ctx, env.Dependence.Depenv.cfg))
          prog.Ast.punits
      in
      List.iter
        (fun unit ->
          Option.iter
            (Alcotest.failf "%s: liveness differs from the reference: %s" name)
            (liveness_mismatch unit))
        (units_of prog @ interproc))
    (List.filter
       (fun (name, _) -> String.starts_with ~prefix:"stress:" name)
       (scalar_programs ()))

(* Visits per solve on the full deep stress program, read from the
   [dataflow.visits_per_solve] histogram: each of the three Depenv
   solves of every unit stays within 10 visits per node. *)
let deep_visit_bound () =
  let prev = Telemetry.default () in
  Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
  List.iter
    (fun (u : Ast.program_unit) ->
      let ctx = Defuse.make (Symbol.build u) u in
      let cfg = Cfg.build u in
      List.iter
        (fun (name, solve) ->
          let tel = Telemetry.make () in
          Telemetry.set_default tel;
          solve ctx cfg;
          let visits = Telemetry.hist_sum (Telemetry.histogram tel "dataflow.visits_per_solve") in
          if visits > 10 * Cfg.size cfg then
            Alcotest.failf "%s on %s: %d visits for %d nodes" name u.Ast.uname visits
              (Cfg.size cfg))
        [
          ("reaching", fun ctx cfg -> ignore (Reaching.analyze ctx cfg));
          ("liveness", fun ctx cfg -> ignore (Liveness.analyze ctx cfg));
          ("constants", fun ctx cfg -> ignore (Constants.analyze ctx cfg));
        ])
    (Oracle.Stress.generate Oracle.Stress.deep).Ast.punits

let suite =
  [
    case "reaching: straight line kill" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      X = 1\n      X = 2\n      Y = X\n      END\n"
        in
        let r = Reaching.analyze ctx cfg in
        let y = stmt_with cfg (fun s ->
            match s.Ast.node with Ast.Assign (Ast.Var "Y", _) -> true | _ -> false) in
        match Reaching.defs_of_use r y "X" with
        | [ { Reaching.def_at = Cfg.Stmt d; _ } ] ->
          (* only the second X = reaches *)
          let second = stmt_with cfg (fun s ->
              match s.Ast.node with
              | Ast.Assign (Ast.Var "X", Ast.Int 2) -> true | _ -> false) in
          check_int "second def" second d
        | _ -> Alcotest.fail "expected exactly one def");
    case "reaching: both branch defs reach" (fun () ->
        let _, ctx, cfg =
          setup
            "      PROGRAM P\n      IF (A .GT. 0) THEN\n        X = 1\n      ELSE\n        X = 2\n      ENDIF\n      Y = X\n      END\n"
        in
        let r = Reaching.analyze ctx cfg in
        let y = stmt_with cfg (fun s ->
            match s.Ast.node with Ast.Assign (Ast.Var "Y", _) -> true | _ -> false) in
        check_int "two defs" 2 (List.length (Reaching.defs_of_use r y "X")));
    case "reaching: loop def reaches around back edge" (fun () ->
        let _, ctx, cfg =
          setup
            "      PROGRAM P\n      DO I = 1, 3\n        Y = X\n        X = 1.0\n      ENDDO\n      END\n"
        in
        let r = Reaching.analyze ctx cfg in
        let y = stmt_with cfg (fun s ->
            match s.Ast.node with Ast.Assign (Ast.Var "Y", _) -> true | _ -> false) in
        (* Entry def and the loop def both reach the use *)
        check_int "two defs" 2 (List.length (Reaching.defs_of_use r y "X")));
    case "unique_def requires single non-entry def" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      K = 3\n      X = K + 1.0\n      END\n"
        in
        let r = Reaching.analyze ctx cfg in
        let x = assign_sid cfg "X" in
        check_bool "unique" true (Reaching.unique_def r x "K" <> None));
    case "liveness: read keeps variable live" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      X = 1\n      Y = X\n      END\n"
        in
        let l = Liveness.analyze ctx cfg in
        let x = assign_sid cfg "X" in
        check_bool "X live after def" true (Liveness.is_live_out l x "X"));
    case "liveness: dead after last use" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      X = 1\n      Y = X\n      Y = 2\n      END\n"
        in
        let l = Liveness.analyze ctx cfg in
        let y2 = stmt_with cfg (fun s ->
            match s.Ast.node with
            | Ast.Assign (Ast.Var "Y", Ast.Int 2) -> true | _ -> false) in
        check_bool "X dead" false (Liveness.is_live_out l y2 "X"));
    case "liveness: all_escape keeps locals live at exit" (fun () ->
        let _, ctx, cfg = setup "      PROGRAM P\n      X = 1\n      END\n" in
        let l = Liveness.analyze ~all_escape:true ctx cfg in
        let x = assign_sid cfg "X" in
        check_bool "escapes" true (Liveness.is_live_out l x "X"));
    case "constants: simple propagation" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      K = 3\n      L = K + 4\n      M = L\n      END\n"
        in
        let c = Constants.analyze ctx cfg in
        let m = assign_sid cfg "M" in
        check_bool "L=7" true
          (Constants.const_of_var c m "L" = Some (Constants.Cint 7)));
    case "constants: join of different values is bottom" (fun () ->
        let _, ctx, cfg =
          setup
            "      PROGRAM P\n      IF (A .GT. 0) THEN\n        K = 1\n      ELSE\n        K = 2\n      ENDIF\n      M = K\n      END\n"
        in
        let c = Constants.analyze ctx cfg in
        let m = assign_sid cfg "M" in
        check_bool "K unknown" true (Constants.const_of_var c m "K" = None));
    case "constants: loop variable is varying" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      DO I = 1, 3\n        M = I\n      ENDDO\n      END\n"
        in
        let c = Constants.analyze ctx cfg in
        let m = assign_sid cfg "M" in
        check_bool "I varying" true (Constants.const_of_var c m "I" = None));
    case "constants: parameters seed the lattice" (fun () ->
        let _, ctx, cfg =
          setup
            "      PROGRAM P\n      INTEGER N\n      PARAMETER (N = 10)\n      M = N * 2\n      END\n"
        in
        let c = Constants.analyze ctx cfg in
        let m = assign_sid cfg "M" in
        check_bool "2N" true
          (Constants.int_at c m (Parser.parse_expr_string "N * 2") = Some 20));
    case "constants: call kills modifiable actuals" (fun () ->
        let _, ctx, cfg =
          setup "      PROGRAM P\n      K = 3\n      CALL S(K)\n      M = K\n      END\n"
        in
        let c = Constants.analyze ctx cfg in
        let m = assign_sid cfg "M" in
        check_bool "K clobbered" true (Constants.const_of_var c m "K" = None));
    case "dominators: loop body dominated by header" (fun () ->
        let _, _, cfg =
          setup "      PROGRAM P\n      DO I = 1, 3\n        X = I\n      ENDDO\n      END\n"
        in
        let dom = Dominators.dominators cfg in
        let do_n =
          List.find
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.Do _; _ } -> true
              | _ -> false)
            (Cfg.nodes cfg)
        in
        let x = Cfg.Stmt (assign_sid cfg "X") in
        check_bool "dominates" true (Dominators.dominates dom do_n x));
    case "dominators: every node dominates a cycle that never exits" (fun () ->
        let _, _, cfg =
          setup
            "      PROGRAM P\n      K = 0\n      IF (K .GT. 0) THEN\n        GOTO 20\n      ENDIF\n      STOP\n 20   K = K + 1\n      GOTO 20\n      END\n"
        in
        let pdom = Dominators.postdominators cfg in
        let goto_sids =
          List.filter_map
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.Goto _; sid; _ } -> Some sid
              | _ -> None)
            (Cfg.nodes cfg)
        in
        let inner, outer =
          match List.sort compare goto_sids with [ a; b ] -> (a, b) | _ -> assert false
        in
        let k1 = Cfg.Stmt (stmt_with cfg (fun s -> s.Ast.label = Some 20)) in
        let cycle = [ Cfg.Stmt inner; k1; Cfg.Stmt outer ] in
        List.iter
          (fun m ->
            List.iter
              (fun n -> check_bool "postdominates" true (Dominators.dominates pdom n m))
              (Cfg.nodes cfg))
          cycle;
        (* the greatest other node on the cycle, in node order *)
        let idom n = Dominators.idom pdom n in
        check_bool "idom of the inner GOTO" true (idom (Cfg.Stmt inner) = Some (Cfg.Stmt outer));
        check_bool "idom of the labelled statement" true (idom k1 = Some (Cfg.Stmt outer));
        check_bool "idom of the outer GOTO" true (idom (Cfg.Stmt outer) = Some k1));
    case "dominators: a lone cycle's idom ends the only path" (fun () ->
        (* the one node no root reaches: its idom is the node every
           other node dominates, the end of a tree that is one path *)
        let _, _, cfg = setup "      PROGRAM P\n      STOP\n 10   GOTO 10\n      END\n" in
        let g = Cfg.Stmt (stmt_with cfg (fun s -> s.Ast.label = Some 10)) in
        check_bool "dominators" true
          (Dominators.idom (Dominators.dominators cfg) g = Some Cfg.Exit);
        check_bool "postdominators" true
          (Dominators.idom (Dominators.postdominators cfg) g = Some Cfg.Entry));
    case "control dependence: then-branch on the if" (fun () ->
        let u, _, cfg =
          setup
            "      PROGRAM P\n      IF (A .GT. 0) THEN\n        X = 1\n      ENDIF\n      Y = 2\n      END\n"
        in
        ignore u;
        let edges = Control_dep.compute cfg in
        let if_sid = stmt_with cfg (fun s ->
            match s.Ast.node with Ast.If _ -> true | _ -> false) in
        let x = assign_sid cfg "X" in
        let y = assign_sid cfg "Y" in
        check_bool "x on if" true
          (List.mem if_sid (Control_dep.controllers edges x));
        check_bool "y not on if" false
          (List.mem if_sid (Control_dep.controllers edges y)));
    case "control dependence: loop body on the do" (fun () ->
        let _, _, cfg =
          setup "      PROGRAM P\n      DO I = 1, 3\n        X = I\n      ENDDO\n      END\n"
        in
        let edges = Control_dep.compute cfg in
        let do_sid = stmt_with cfg (fun s ->
            match s.Ast.node with Ast.Do _ -> true | _ -> false) in
        let x = assign_sid cfg "X" in
        check_bool "body controlled" true
          (List.mem do_sid (Control_dep.controllers edges x)));
    case "solver converges on workloads" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            List.iter
              (fun u ->
                let tbl = Symbol.build u in
                let ctx = Defuse.make tbl u in
                let cfg = Cfg.build u in
                ignore (Reaching.analyze ctx cfg);
                ignore (Liveness.analyze ctx cfg);
                ignore (Constants.analyze ctx cfg))
              (Workloads.program w).Ast.punits)
          Workloads.all);
      case "scalar analyses match pinned digests" scalar_digests_pinned;
      case "no solve on stress:deep visits over 10x its nodes" deep_visit_bound;
    qcheck_case matches_references;
    qcheck_case constants_match_reference;
    case "constant propagation equals the reference on the stress profiles"
      constants_match_reference_stress;
    qcheck_case solutions_are_fixed_points;
    qcheck_case liveness_matches_reference;
    case "liveness equals the reference on the stress profiles"
      liveness_matches_reference_stress;
  ]
