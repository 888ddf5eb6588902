(* User assertions: when analysis alone cannot decide, the user can
   tell the editor what the program guarantees.

   Story 1 (symbounds): a loop reads A(I+M) with M unknown to the
   compiler.  Asserting M's value lets the strong SIV test disprove
   the dependence.

   Story 2 (indexarr): A(IDX(I)) with an index array defeats every
   static test.  Asserting that IDX is a permutation makes the
   subscripts comparable, and the loop parallelizes.

     dune exec examples/assertions.exe *)

let story title workload ~unit_name script =
  Printf.printf "==== %s ====\n" title;
  let w = Option.get (Workloads.by_name workload) in
  let sess = Ped.Session.load (Workloads.program w) ~unit_name in
  List.iter print_endline (Ped.Command.script sess script);
  sess

(* Mark every now-parallelizable loop PARALLEL DO and simulate. *)
let parallelize_all_and_simulate sess =
  ignore (Ped.Session.parallelize_safe_loops sess);
  print_endline (Ped.Command.run sess "simulate 8")

let () =
  let sess =
    story "symbolic bound, value assertion" "symbounds" ~unit_name:"SHIFT"
      [
        "loops";
        "deps carried";
        "assert M = 64";
        "loops";
        "stats";
      ]
  in
  ignore sess;
  let sess =
    story "index array, permutation assertion" "indexarr" ~unit_name:"IDXARR"
      [
        "loops";
        "assert perm IDX";
        "loops";
      ]
  in
  parallelize_all_and_simulate sess
