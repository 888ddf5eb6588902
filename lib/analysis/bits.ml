(* Bit sets in bytes padded to whole 64-bit words. *)

type t = Bytes.t

let make n = Bytes.make (8 * ((n + 63) / 64)) '\000'

let add b i =
  let k = i lsr 3 in
  Bytes.set b k (Char.unsafe_chr (Char.code (Bytes.get b k) lor (1 lsl (i land 7))))

let remove b i =
  let k = i lsr 3 in
  Bytes.set b k
    (Char.unsafe_chr (Char.code (Bytes.get b k) land lnot (1 lsl (i land 7))))

let mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let of_list n ids =
  let b = make n in
  List.iter (add b) ids;
  b

let words b = Bytes.length b / 8

let union a b =
  let r = Bytes.create (Bytes.length a) in
  for w = 0 to words a - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne r o
      (Int64.logor (Bytes.get_int64_ne a o) (Bytes.get_int64_ne b o))
  done;
  r

let inter a b =
  let r = Bytes.create (Bytes.length a) in
  for w = 0 to words a - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne r o
      (Int64.logand (Bytes.get_int64_ne a o) (Bytes.get_int64_ne b o))
  done;
  r

let transfer ~gen ~kill x =
  let r = Bytes.create (Bytes.length x) in
  for w = 0 to words x - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne r o
      (Int64.logor (Bytes.get_int64_ne gen o)
         (Int64.logand (Bytes.get_int64_ne x o)
            (Int64.lognot (Bytes.get_int64_ne kill o))))
  done;
  r

let equal = Bytes.equal

let union_into dst src =
  for w = 0 to words dst - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne dst o
      (Int64.logor (Bytes.get_int64_ne dst o) (Bytes.get_int64_ne src o))
  done

let inter_into dst src =
  for w = 0 to words dst - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne dst o
      (Int64.logand (Bytes.get_int64_ne dst o) (Bytes.get_int64_ne src o))
  done

let union_diff_into dst src mask =
  for w = 0 to words dst - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne dst o
      (Int64.logor (Bytes.get_int64_ne dst o)
         (Int64.logand (Bytes.get_int64_ne src o)
            (Int64.lognot (Bytes.get_int64_ne mask o))))
  done
