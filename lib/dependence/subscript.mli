(** Subscript analysis: loop normalization and affine extraction.

    Every loop of a nest is normalized to an iteration counter τ
    running 0, 1, ..., trip with step 1 ([I = lo + step·τ]); subscript
    expressions are then expressed as linear forms over the τ symbols
    of the enclosing loops plus loop-invariant symbols.  Dependence
    tests ({!Dtest}) operate on these forms.

    Extraction applies, in order: forward substitution of unique
    scalar definitions ([J1 = J + 1] idiom), auxiliary-induction-
    variable rewriting ([K = K + c] becomes [K₀ + c·τ]), constant
    propagation of symbolic terms, and linearization.  Anything that
    survives none of these is {!Nonlinear} and forces a conservative
    assumed dependence — exactly the "symbolic subscript" failures the
    Ped evaluation catalogues. *)

open Fortran_front
open Scalar_analysis

type norm_loop = {
  nloop : Loopnest.loop;
  tau : string;        (** synthetic symbol, unique per loop *)
  step : int;          (** original step (≠ 0), or ±1 in raw mode *)
  lo_lin : Symbolic.Linear.t;  (** lower bound as a linear form *)
  trip : int option;   (** τ ranges over 0..trip; [None] = unknown *)
  trip_exact : bool;
      (** false when [trip] is only an upper bound (from an asserted
          range): sound for disproofs, but existence cannot be proven *)
  lo_known : bool;
      (** false in {e raw mode}: the lower bound was not affine (e.g.
          MAX/MIN bounds after a wavefront interchange), so τ stands
          for the induction variable itself (negated for negative
          steps) and ranges over all integers — the tests then use
          unbounded Banerjee ranges for it. *)
}

(** [normalize env loops] — normalize each loop of [loops] (outermost
    first).  A loop whose lower bound is not affine degrades to raw
    mode (see {!norm_loop.lo_known}); only a step of unknown sign
    yields [None] for the whole nest (dependence testing then assumes
    dependence). *)
val normalize : Depenv.t -> Loopnest.loop list -> norm_loop list option

type dim = Lin of Symbolic.Linear.t | Nonlinear

(** [dim_form env sid e] — the expression {!analyze_ref} linearizes
    for subscript [e] at statement [sid]: [e] forward-substituted
    (under [use_symbolics]), and unwrapped through an asserted-injective
    index array.  Dependence-bucket keys record it. *)
val dim_form : Depenv.t -> Ast.stmt_id -> Ast.expr -> Ast.expr

(** [analyze_ref env ~norm sid subscripts] — the subscripts of an
    array reference at statement [sid], as linear forms over the τ
    symbols of [norm] and residual symbols. *)
val analyze_ref :
  Depenv.t -> norm:norm_loop list -> Ast.stmt_id -> Ast.expr list -> dim list

(** [dim_symbols_ok env ~common ~src ~dst dims] — true when every
    non-τ symbol of the two dimensions (a) reaches both statements
    with the same definitions and (b) is invariant in the outermost
    common loop.  Only then may equal symbols be cancelled during
    testing.  Checked per dimension: a dimension whose own symbols
    check out is usable even when a sibling dimension's are not (e.g.
    [A(I,I)] against [A(I,J)] — the first dimension still pins the
    distance). *)
val dim_symbols_ok :
  Depenv.t ->
  common:norm_loop list ->
  src:Ast.stmt_id ->
  dst:Ast.stmt_id ->
  dim * dim ->
  bool
