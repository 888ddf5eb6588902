type direction = Forward | Backward

type 'a problem = {
  direction : direction;
  boundary : 'a;
  init : 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  transfer : int -> 'a -> 'a;
}

type 'a result = { cfg : Cfg.t; input_ : 'a array; output_ : 'a array }

let solve (cfg : Cfg.t) (p : 'a problem) : 'a result =
  let n = Cfg.size cfg in
  let flow_preds, flow_succs, boundary_node =
    match p.direction with
    | Forward -> (Cfg.pred_ids cfg, Cfg.succ_ids cfg, Cfg.Entry)
    | Backward -> (Cfg.succ_ids cfg, Cfg.pred_ids cfg, Cfg.Exit)
  in
  let b = Option.get (Cfg.index cfg boundary_node) in
  let in_ = Array.make n p.init and out = Array.make n p.init in
  out.(b) <- p.transfer b p.boundary;
  (* [dirty.(i)]: some input of node [i] changed since its last visit.
     Each pass sweeps the nodes in reverse postorder (postorder for a
     backward problem) and visits only the dirty ones, so a change
     reaches every node after it within the same pass. *)
  let dirty = Array.make n true and pending = ref n in
  let max_visits = 10_000 * (n + 1) in
  let visits = ref 0 in
  let visit i =
    dirty.(i) <- false;
    decr pending;
    incr visits;
    if !visits > max_visits then failwith "Dataflow.solve: did not converge";
    let v =
      Array.fold_left
        (fun acc m -> p.join acc out.(m))
        (if i = b then p.boundary else p.init)
        (flow_preds i)
    in
    in_.(i) <- v;
    let o = p.transfer i v in
    if not (p.equal out.(i) o) then begin
      out.(i) <- o;
      Array.iter
        (fun s ->
          if not dirty.(s) then begin
            dirty.(s) <- true;
            incr pending
          end)
        (flow_succs i)
    end
  in
  while !pending > 0 do
    match p.direction with
    | Forward -> for i = 0 to n - 1 do if dirty.(i) then visit i done
    | Backward -> for i = n - 1 downto 0 do if dirty.(i) then visit i done
  done;
  (* solver convergence feeds the observability layer: total node
     visits and a per-solve distribution (process-default sink) *)
  let tel = Telemetry.default () in
  if Telemetry.metrics_on tel then begin
    Telemetry.incr (Telemetry.counter tel "dataflow.solves");
    Telemetry.add (Telemetry.counter tel "dataflow.node_visits") !visits;
    Telemetry.observe (Telemetry.histogram tel "dataflow.visits_per_solve")
      !visits
  end;
  { cfg; input_ = in_; output_ = out }

let lookup what a r n =
  match Cfg.index r.cfg n with
  | Some i -> a.(i)
  | None -> invalid_arg ("Dataflow." ^ what ^ ": unknown node")

let input r n = lookup "input" r.input_ r n
let input_at r i = r.input_.(i)
let output r n = lookup "output" r.output_ r n
