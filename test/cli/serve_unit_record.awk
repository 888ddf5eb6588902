# Reads a `ped serve --profile` report and names each span under
# which a unit's symbol table (analysis.symbols) or CFG (analysis.cfg)
# was built, in the report's order.  A session served from another
# session's summary reads the summary's syntax records, so both are
# built only by the call graph (interproc.callgraph).
#
#   ped serve --profile < test/cli/serve_unit_record.in \
#     | awk -f test/cli/serve_unit_record.awk

/^telemetry profile:/ { table = 1; next }
/^counters:/ { table = 0 }
table && $1 != "span" {
  col = index($0, $1)
  name[col] = $1
  if ($1 == "analysis.symbols" || $1 == "analysis.cfg") {
    line = $1 " built under " name[col - 2]
    if (!(line in seen)) { seen[line] = 1; print line }
  }
}
