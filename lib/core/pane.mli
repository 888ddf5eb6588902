(** Text rendering of Ped's three panes.

    The original Ped is an X11 application; this renders the same
    three-pane model — source, dependences, variables — as text, one
    string per pane, so the CLI, scripted sessions and tests all see
    exactly what a user would.  Each pane renders under a span on the
    session's sink ([pane.source], [pane.deps], [pane.vars],
    [pane.loops]), so a profile names the time a read spends drawing. *)

val source_pane : Session.t -> string

(** The dependence pane for the current selection and filter, one row
    per dependence: id, type, variable, endpoints, vector, level,
    status. *)
val dependence_pane : Session.t -> string

(** [add_dep_row buf ~status d] appends one dependence-pane row, without
    its newline: the bytes of
    [Printf.sprintf "#%-4d %-7s %-8s s%-4d -> s%-4d %-10s %-6s %s%s"]
    over the id, kind, variable (["-"] if none), endpoints, first
    direction vector (["-"] if none), level (["L<n>"] or ["indep"]),
    status, and [" d=(...)"] when some distance is known. *)
val add_dep_row : Buffer.t -> status:Marking.status -> Dependence.Ddg.dep -> unit

(** The variable pane for the selected loop: each variable's
    classification (induction / private / reduction / shared). *)
val variable_pane : Session.t -> string

(** One-line summary per loop: id, nesting, header, parallelizable?,
    estimated share of unit time. *)
val loops_pane : Session.t -> string

(** The whole display (all panes). *)
val full_display : Session.t -> string
