(** End-to-end plugin pipeline: lower → emit → native compile → Dynlink
    load → run, plus a differential check against the interpreter.

    All failure modes are data, not exceptions:

    - [Unsupported] — the program is outside the compilable subset
      (lowering refused it).  Callers should fall back to the
      interpreter; the fuzz oracle counts these as skips.
    - [Toolchain] — no native compiler or build tree on this host.
      Also a skip, never a crash.
    - [Failed] — the pipeline itself broke (compile error, Dynlink
      error, the generated code raised).  Always a bug worth a look. *)

type error =
  | Unsupported of string
  | Toolchain of string
  | Failed of string

val error_to_string : error -> string

(** A loaded plugin, reusable across runs: the registered entry holds no
    mutable state — every call allocates the whole store afresh. *)
type built = {
  entry : Registry.entry;
  module_name : string;
  src_file : string;  (** generated source; removed unless [~keep] *)
  ir_stmts : int;  (** IR statement count, for telemetry *)
}

(** Lower and emit only — the generated source text, for inspection
    ([ped compile -o]).  No toolchain needed. *)
val generate : Fortran_front.Ast.program -> (string, error) result

(** Full pipeline up to a loaded, callable entry.  Scratch artifacts go
    under [dir] (default [".ped-codegen"], created on demand) and are
    deleted after a successful load unless [keep].  Telemetry spans:
    [codegen.lower], [codegen.emit], [codegen.compile], [codegen.load]. *)
val build :
  ?telemetry:Telemetry.sink ->
  ?dir:string ->
  ?keep:bool ->
  Fortran_front.Ast.program ->
  (built, error) result

type run_result = {
  out_lines : string list;
  store : (string * float list) list;  (** Abi-sorted, like {!Runtime.Exec} *)
  wall_s : float;
}

(** Execute a loaded entry.  [pool = None] runs every loop sequentially.
    Exceptions escaping the generated code (STOP-less runtime errors,
    bounds violations) come back as [Failed].  Span: [codegen.run]. *)
val run :
  ?telemetry:Telemetry.sink ->
  built ->
  pool:Runtime.Pool.t option ->
  schedule:Runtime.Pool.schedule ->
  (run_result, error) result
