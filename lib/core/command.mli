(** The editor's command language.

    Every interaction the original Ped offered through menus and mouse
    clicks exists here as a typed command, so sessions can be driven
    interactively (bin/ped), scripted (examples, the evaluation
    harness) and tested deterministically.  [run] executes one command
    line and returns the text the user sees.

    Commands:
    {v
    help                      this list
    units                     program units
    unit NAME                 focus a unit
    loops                     loop summary (parallelizable?, time share)
    select sN                 select a loop
    src [loops|find TEXT|all] source pane (with view filter)
    deps [var X|kind K|carried|status S|scalar|all|reset]...
                              dependence pane (with view filter)
    vars                      variable pane for the selected loop
    outline                   loops and calls only (progressive disclosure)
    callgraph [dot]           whole-program call graph (textual or Graphviz)
    mark N accept|reject|pending
                              mark dependence #N
    assert VAR = N            assert a variable's value
    assert perm ARR           assert an index array is a permutation
    private sN VAR            declare VAR private in loop sN
    preview T ARGS            power-steering diagnosis only
    apply T ARGS [!]          apply transformation ([!] forces unsafe)
    edit sN TEXT              replace statement sN with parsed TEXT
    undo                      revert the last change: an edit, a
                              transformation, an assertion, a mark
                              or a private declaration
    redo                      re-apply the last undone change
    history                   the changes undo can revert, newest first
    diff                      changed source lines vs the loaded program
    write FILE                save the (transformed) program as Fortran
    estimate [P]              static cost/speedup estimate
    advise                    ranked suggestions (estimator + diagnoses)
    simulate [P]              run on the simulated machine
    stats                     dependence-test statistics
    display                   all panes
    v}
    Transformations [T]: see {!Transform.Catalog.names}; [ARGS] are
    statement ids ([sN]), an integer factor, or a variable name, e.g.
    [apply interchange s12], [apply skew s12 1], [apply expand s12 T]. *)

val run : Session.t -> string -> string

(** Run a whole script (a list of command lines); returns each
    command's output, prefixed by the echoed command. *)
val script : Session.t -> string list -> string list

val help_text : string
