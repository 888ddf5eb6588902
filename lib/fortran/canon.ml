(* What "the same program" means: a byte encoding of the AST that
   leaves source locations out.  Every writer is self-delimiting — a
   tag character, ';'-terminated numbers and names, length-prefixed
   strings and lists — so the bytes of a value decode back to it, and
   two values encode equally exactly when they are equal up to
   locations. *)

open Ast

(* [string_of_int]'s digits, written in place: digits of [n <= 0],
   most significant first, on the negative side so [min_int] is
   exact *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n);
  Buffer.add_char buf ';'

let add_name buf v =
  Buffer.add_string buf v;
  Buffer.add_char buf ';'

let add_bool buf b = Buffer.add_char buf (if b then 'T' else 'F')

let add_list f buf xs =
  add_int buf (List.length xs);
  List.iter (f buf) xs

let add_option f buf = function
  | None -> Buffer.add_char buf '-'
  | Some x ->
    Buffer.add_char buf '+';
    f buf x

let binop_char = function
  | Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/'
  | Pow -> '^' | Lt -> '<' | Le -> 'l' | Gt -> '>'
  | Ge -> 'g' | Eq -> '=' | Ne -> '!' | And -> '&'
  | Or -> '|'

let rec add_expr buf (e : expr) =
  match e with
  | Int n ->
    Buffer.add_char buf 'i';
    add_int buf n
  | Real f ->
    Buffer.add_char buf 'r';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Logic b -> Buffer.add_char buf (if b then 'T' else 'F')
  | Str s ->
    Buffer.add_char buf 's';
    add_int buf (String.length s);
    Buffer.add_string buf s
  | Var v ->
    Buffer.add_char buf 'v';
    add_name buf v
  | Index (b, args) ->
    Buffer.add_char buf 'x';
    add_name buf b;
    List.iter (add_expr buf) args;
    Buffer.add_char buf ')'
  | Bin (op, a, b) ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (binop_char op);
    add_expr buf a;
    add_expr buf b
  | Un (op, a) ->
    Buffer.add_char buf 'u';
    Buffer.add_char buf (match op with Neg -> '-' | Not -> '!');
    add_expr buf a

let add_typ buf t =
  Buffer.add_char buf
    (match t with Tinteger -> 'i' | Treal -> 'r' | Tdouble -> 'd' | Tlogical -> 'l')

(* Every field is named, so a field added to the AST fails to compile
   here until it is written or, like the location, left out.  The
   statement id is content: analysis results name statements by it. *)
let rec add_stmt buf ({ sid; label; loc = _; node } : stmt) =
  add_int buf sid;
  add_option add_int buf label;
  match node with
  | Assign (lhs, rhs) ->
    Buffer.add_char buf 'A';
    add_expr buf lhs;
    add_expr buf rhs
  | If (branches, els) ->
    Buffer.add_char buf 'I';
    add_list
      (fun buf (c, body) ->
        add_expr buf c;
        add_body buf body)
      buf branches;
    add_body buf els
  | Do ({ dvar; lo; hi; step; parallel }, body) ->
    Buffer.add_char buf 'D';
    add_name buf dvar;
    add_expr buf lo;
    add_expr buf hi;
    add_option add_expr buf step;
    add_bool buf parallel;
    add_body buf body
  | Call (name, args) ->
    Buffer.add_char buf 'C';
    add_name buf name;
    add_list add_expr buf args
  | Goto l ->
    Buffer.add_char buf 'G';
    add_int buf l
  | Continue -> Buffer.add_char buf 'c'
  | Return -> Buffer.add_char buf 'r'
  | Stop -> Buffer.add_char buf 's'
  | Print args ->
    Buffer.add_char buf 'P';
    add_list add_expr buf args

and add_body buf body = add_list add_stmt buf body

let add_decl buf ({ dname; dtyp; dims; init; data_init; common_block } : decl) =
  add_name buf dname;
  add_typ buf dtyp;
  add_list
    (fun buf (lo, hi) ->
      add_expr buf lo;
      add_expr buf hi)
    buf dims;
  add_option add_expr buf init;
  add_option add_expr buf data_init;
  add_option add_name buf common_block

let add_unit buf
    ({ uname; kind; decls; implicit_none; implicits; body } : program_unit) =
  add_name buf uname;
  (match kind with
  | Main -> Buffer.add_char buf 'M'
  | Subroutine formals ->
    Buffer.add_char buf 'S';
    add_list add_name buf formals
  | Function (t, formals) ->
    Buffer.add_char buf 'F';
    add_typ buf t;
    add_list add_name buf formals);
  add_list add_decl buf decls;
  add_bool buf implicit_none;
  add_list
    (fun buf (t, ranges) ->
      add_typ buf t;
      add_list
        (fun buf (a, b) ->
          Buffer.add_char buf a;
          Buffer.add_char buf b)
        buf ranges)
    buf implicits;
  add_body buf body

(* One buffer per domain, reused (an encoding never starts inside
   another, and no thread shares a domain): a unit encodes to a few
   kilobytes, and a fresh buffer that size would go to the major heap
   on every digest. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let unit_digest u =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  add_unit buf u;
  Digest.string (Buffer.contents buf)

(* The units' digests are fixed-length, so their concatenation is
   unambiguous. *)
let program_digest ?(unit_digest = unit_digest) p =
  Digest.string (String.concat "" (List.map unit_digest p.punits))
