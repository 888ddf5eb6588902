# Reads a `ped --profile` report and names what a unit's environment
# build (the analysis.depenv span) takes apart again instead of
# reading it from the unit's syntax record: the symbol table
# (analysis.symbols) or the CFG (analysis.cfg).
#
#   ped -w stress:deep@smoke -s test/cli/pane_profile.ped --profile \
#     | awk -f test/cli/unit_record_profile.awk

$1 == "analysis.depenv" { depth = index($0, $1); seen = 1; next }
depth && index($0, $1) <= depth { depth = 0 }
depth && ($1 == "analysis.symbols" || $1 == "analysis.cfg") { rebuilt[$1] = 1 }

END {
  print "analysis.depenv spans: " (seen ? "present" : "none")
  if ("analysis.symbols" in rebuilt) print "rebuilt under analysis.depenv: analysis.symbols"
  if ("analysis.cfg" in rebuilt) print "rebuilt under analysis.depenv: analysis.cfg"
  if (!("analysis.symbols" in rebuilt) && !("analysis.cfg" in rebuilt))
    print "rebuilt under analysis.depenv: nothing"
}
