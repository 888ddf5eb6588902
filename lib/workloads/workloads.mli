(** The workload suite — miniature Fortran programs, each exhibiting a
    phenomenon from the ParaScope Editor literature (stencils,
    recurrences, reductions, symbolic bounds, index arrays, calls in
    loops...).  Every program is self-contained and runnable on the
    simulator: it initializes its data, computes, and PRINTs checksums
    the tests compare across transformations. *)

open Fortran_front

type t = {
  name : string;
  description : string;
  phenomenon : string;   (** what the kernel exercises *)
  source : string;       (** complete Fortran source *)
  main_loops : int;      (** DO loops in the main unit *)
  main_parallel : int;
      (** of those, how many full analysis (with interprocedural
          support) proves parallelizable — the tests pin this *)
  assertion_script : string list;
      (** editor commands (assertions/markings) that unlock more
          parallelism, empty when none apply *)
}

val all : t list
val by_name : string -> t option
val names : string list

(** Parsed program (fresh statement ids each call). *)
val program : t -> Ast.program

(** The main unit's name. *)
val main_unit : t -> string

(** [wide_nests ~nests ~seed_const] — the source of one main unit with
    [nests] top-level 2-D nests over three shared arrays.
    [seed_const] is the constant in the first nest, and nothing else
    depends on it: the parallel-analysis bench times this program, and
    its test edits that constant. *)
val wide_nests : nests:int -> seed_const:float -> string

(** {2 Generated stress workloads}

    The oracle's stress factory ({!Oracle.Stress}), registered beside
    the curated suite (not inside [all]: the kernels pin loop counts
    and simulator outcomes, stress programs are sized for analysis
    pressure).  Addressable wherever a workload name is accepted as
    ["stress:PROFILE[@SCALE]"] — e.g. ["stress:deep"],
    ["stress:many-units@0.2"].  SCALE is a positive float or a named
    size: [tiny] ({!Oracle.Stress.tiny}, the fuzzer's capped size),
    [smoke] ({!Oracle.Stress.smoke}, the CI size the tests pin: deep
    at 0.25, wide at 0.3, many-units at 0.15), [full] (1.0). *)

val is_stress_name : string -> bool

(** ["stress:deep"; "stress:wide"; "stress:many-units"]. *)
val stress_names : string list

(** [stress ?seed name] — generate the named stress program
    (deterministic in [(seed, name)], canonical statement ids). *)
val stress : ?seed:int -> string -> (Ast.program, string) result
