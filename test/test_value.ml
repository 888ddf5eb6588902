(* Storage-layer tests: column-major offsets and views on {!Sim.Store},
   value conversions on {!Sim.Value}. *)

open Fortran_front
open Sim.Value
open Util
module Store = Sim.Store

let arr n bounds =
  { Store.abuf = Store.alloc Ast.Treal n; base = 0; bounds }

(* REAL A(2,3) — 6 elements, column major *)
let arr2 () = arr 6 [ (1, 2); (1, 3) ]

let suite =
  [
    case "column-major offsets" (fun () ->
        let a = arr2 () in
        check_int "A(1,1)" 0 (Store.offset a [ 1; 1 ]);
        check_int "A(2,1)" 1 (Store.offset a [ 2; 1 ]);
        check_int "A(1,2)" 2 (Store.offset a [ 1; 2 ]);
        check_int "A(2,3)" 5 (Store.offset a [ 2; 3 ]));
    case "lower bounds shift offsets" (fun () ->
        let a = arr 6 [ (0, 5) ] in
        check_int "A(0)" 0 (Store.offset a [ 0 ]);
        check_int "A(5)" 5 (Store.offset a [ 5 ]));
    case "views share storage with a base" (fun () ->
        let a = arr 10 [ (1, 10) ] in
        Store.set a.Store.abuf (Store.offset a [ 7 ]) (VR 3.5);
        (* a view starting at element 5, reshaped to length 6 *)
        let v = { a with Store.base = 4; bounds = [ (1, 6) ] } in
        check_bool "aliases" true
          (Store.to_float v.Store.abuf (Store.offset v [ 3 ]) = 3.5));
    case "out-of-storage offsets rejected" (fun () ->
        let a = arr2 () in
        (match Store.offset a [ 3; 3 ] with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
        match Store.offset a [ 0; 0 ] with
        | exception Failure _ -> ()
        | o -> if o < 0 then Alcotest.fail "negative offset accepted" else ());
    case "subscript count mismatch rejected" (fun () ->
        let a = arr2 () in
        match Store.offset a [ 1 ] with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
    case "conversions follow Fortran assignment" (fun () ->
        check_bool "real->int trunc" true (convert Ast.Tinteger (VR 3.9) = VI 3);
        check_bool "neg real->int trunc" true
          (convert Ast.Tinteger (VR (-3.9)) = VI (-3));
        check_bool "int->real widen" true (convert Ast.Treal (VI 4) = VR 4.0);
        check_bool "logical" true (convert Ast.Tlogical (VI 2) = VL true));
    case "to_int and to_bool coercions" (fun () ->
        check_int "trunc" 3 (to_int (VR 3.7));
        check_bool "nonzero true" true (to_bool (VI 5));
        check_bool "zero false" false (to_bool (VR 0.0)));
    case "zero_of per type" (fun () ->
        check_bool "int" true (zero_of Ast.Tinteger = VI 0);
        check_bool "real" true (zero_of Ast.Treal = VR 0.0);
        check_bool "log" true (zero_of Ast.Tlogical = VL false));
  ]
