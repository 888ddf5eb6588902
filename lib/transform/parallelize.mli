(** Loop parallelization — turn a DO into a PARALLEL DO.

    Safe when the loop carries no flow/anti/output dependence, no
    scalar's last value escapes it and no auxiliary induction variable
    needs substituting, after discounting dependences the user
    rejected and variables the user privatized.  Profitability asks
    whether the loop has enough iterations to pay the fork/join
    overhead. *)

open Fortran_front
open Dependence

(** The DOALL verdict on one loop: what blocks running it as a
    PARALLEL DO.  The editor's panes, its advice, the transformations'
    profitability tests and the bench tables all ask it here. *)
type verdict = {
  blockers : Ddg.dep list;  (** carried edges that block *)
  escapees : string list Lazy.t;
      (** scalars whose last value is read after the loop (expand
          them first) *)
  inductions : string list Lazy.t;
      (** induction accumulators read in the body (substitute them
          first) *)
}

(** [verdict ?user_private env ~carried sid] — [carried] are the edges
    loop [sid] carries that the user has not rejected; scalars in
    [user_private] block nothing. *)
val verdict :
  ?user_private:string list -> Depenv.t -> carried:Ddg.dep list ->
  Ast.stmt_id -> verdict

(** Nothing blocks (the scalar parts are forced only when no edge
    does). *)
val safe : verdict -> bool

(** The verdict with no user context is {!safe}. *)
val parallelizable : Depenv.t -> Ddg.t -> Ast.stmt_id -> bool

(** The verdict (default: with no user context) as reasons, plus
    profitability. *)
val diagnose : ?verdict:verdict -> Depenv.t -> Ddg.t -> Ast.stmt_id -> Diagnosis.t

(** Flip the parallel bit (unconditionally; the editor checks the
    diagnosis first). *)
val apply : Ast.program_unit -> Ast.stmt_id -> Ast.program_unit

(** The inverse: back to a sequential DO.  Always safe. *)
val apply_sequentialize : Ast.program_unit -> Ast.stmt_id -> Ast.program_unit
