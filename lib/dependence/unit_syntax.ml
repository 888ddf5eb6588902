open Fortran_front
open Scalar_analysis

type t = {
  unit_ : Ast.program_unit;
  symbols : Symbol.table;
  cfg : Cfg.t;
  nest : Loopnest.t option Atomic.t;
  control : Control_dep.edge list option Atomic.t;
}

(* the passes emit to the process-default sink, as Depenv's do *)
let pass name f = Telemetry.span (Telemetry.default ()) ("analysis." ^ name) f

let build u =
  {
    unit_ = u;
    symbols = pass "symbols" (fun () -> Symbol.build u);
    cfg = pass "cfg" (fun () -> Cfg.build u);
    nest = Atomic.make None;
    control = Atomic.make None;
  }

(* Built on first use.  Two domains that race both build it, and both
   return the value stored first. *)
let once cell name f =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = pass name f in
    if Atomic.compare_and_set cell None (Some v) then v
    else Option.get (Atomic.get cell)

let unit_ t = t.unit_
let symbols t = t.symbols
let cfg t = t.cfg
let nest t = once t.nest "loopnest" (fun () -> Loopnest.build t.unit_)
let control t = once t.control "control-dep" (fun () -> Control_dep.compute t.cfg)
