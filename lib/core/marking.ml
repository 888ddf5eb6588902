open Dependence

type status = Proven | Pending | Accepted | Rejected

let status_to_string = function
  | Proven -> "proven"
  | Pending -> "pending"
  | Accepted -> "accepted"
  | Rejected -> "rejected"

(* the signature a mark survives reanalysis by *)
type key = {
  k_kind : Ddg.kind;
  k_var : string;
  k_src : int;
  k_dst : int;
  k_level : int option;
}

let key_of (d : Ddg.dep) =
  {
    k_kind = d.Ddg.kind;
    k_var = d.Ddg.var;
    k_src = d.Ddg.src;
    k_dst = d.Ddg.dst;
    k_level = d.Ddg.level;
  }

(* endpoints first: they tell most keys apart *)
module KMap = Map.Make (struct
  type t = key

  let compare a b =
    match Int.compare a.k_src b.k_src with
    | 0 -> (
      match Int.compare a.k_dst b.k_dst with
      | 0 -> (
        match String.compare a.k_var b.k_var with
        | 0 -> (
          match Stdlib.compare a.k_kind b.k_kind with
          | 0 -> Option.compare Int.compare a.k_level b.k_level
          | c -> c)
        | c -> c)
      | c -> c)
    | c -> c
end)

type t = status KMap.t

let empty = KMap.empty
let is_empty = KMap.is_empty
let unmarked (d : Ddg.dep) = if d.Ddg.exact then Proven else Pending
let lookup_count = Atomic.make 0
let lookups () = Atomic.get lookup_count

let status_of t (d : Ddg.dep) =
  Atomic.incr lookup_count;
  match KMap.find_opt (key_of d) t with Some s -> s | None -> unmarked d

let mark t d status =
  match status with
  | Accepted | Rejected -> KMap.add (key_of d) status t
  | Proven | Pending -> KMap.remove (key_of d) t

let rejected_ids t (g : Ddg.t) =
  List.filter_map
    (fun (d : Ddg.dep) ->
      if status_of t d = Rejected then Some d.Ddg.dep_id else None)
    g.Ddg.deps

let count t = KMap.cardinal t
