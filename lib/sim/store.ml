open Fortran_front
module V = Value

type data =
  | F of floatarray
  | I of int array
  | B of bool array

type shadow = {
  w_ep : int array;
  w_it : int array;
  r_ep : int array;
  r_it : int array;
}

type buf = {
  data : data;
  mutable shadow : shadow option;
  mutable excl_epoch : int;
}

let alloc typ n =
  let n = max n 1 in
  let data =
    match typ with
    | Ast.Tinteger -> I (Array.make n 0)
    | Ast.Treal | Ast.Tdouble -> F (Float.Array.make n 0.0)
    | Ast.Tlogical -> B (Array.make n false)
  in
  { data; shadow = None; excl_epoch = -1 }

let alloc_like b n =
  let n = max n 1 in
  let data =
    match b.data with
    | F _ -> F (Float.Array.make n 0.0)
    | I _ -> I (Array.make n 0)
    | B _ -> B (Array.make n false)
  in
  { data; shadow = None; excl_epoch = -1 }

let length b =
  match b.data with
  | F a -> Float.Array.length a
  | I a -> Array.length a
  | B a -> Array.length a

let get b i =
  match b.data with
  | F a -> V.VR (Float.Array.get a i)
  | I a -> V.VI a.(i)
  | B a -> V.VL a.(i)

let set b i v =
  match b.data with
  | F a -> Float.Array.set a i (V.to_float v)
  | I a -> a.(i) <- V.to_int v
  | B a -> a.(i) <- V.to_bool v

let to_float b i =
  match b.data with
  | F a -> Float.Array.get a i
  | I a -> float_of_int a.(i)
  | B a -> if a.(i) then 1.0 else 0.0

let shadow_of b =
  match b.shadow with
  | Some s -> s
  | None ->
    let n = length b in
    let s =
      {
        w_ep = Array.make n (-1);
        w_it = Array.make n (-1);
        r_ep = Array.make n (-1);
        r_it = Array.make n (-1);
      }
    in
    b.shadow <- Some s;
    s

type cell = { cbuf : buf; coff : int }

type arr = { abuf : buf; base : int; bounds : (int * int) list }

type slot = Scalar of cell | Arr of arr

let get_cell c = get c.cbuf c.coff
let set_cell c v = set c.cbuf c.coff v

let offset (a : arr) (idxs : int list) : int =
  let rec go acc stride bounds idxs =
    match (bounds, idxs) with
    | [], [] -> acc
    | (lb, ub) :: bounds, i :: idxs ->
      (* per-dimension range checks are deliberately omitted (Fortran
         programs linearize); the storage bounds check below guards
         memory *)
      let size = if ub >= lb then ub - lb + 1 else 1 in
      go (acc + ((i - lb) * stride)) (stride * size) bounds idxs
    | _ -> failwith "subscript count mismatch"
  in
  let off = a.base + go 0 1 a.bounds idxs in
  if off < 0 || off >= length a.abuf then
    failwith
      (Printf.sprintf "subscript out of bounds (offset %d of %d)" off
         (length a.abuf))
  else off

let copy_into dst src =
  match (dst.data, src.data) with
  | F d, F s -> Float.Array.blit s 0 d 0 (min (Float.Array.length s) (Float.Array.length d))
  | I d, I s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | B d, B s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | _ -> ()
