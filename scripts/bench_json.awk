# Converts `go test -bench` output into the BENCH_<date>.json snapshot:
# the machine the numbers came from (CPU count, GOMAXPROCS, Go version,
# burst mode), then one record per benchmark with throughput (the custom
# pps metric), ns/op, and allocs/op. Invoked by `make bench-json` with
# -v burst= -v date= -v nproc= -v goversion=. GOMAXPROCS is read off the
# benchmark names: `go test` suffixes them with -N when GOMAXPROCS is N > 1.
BEGIN {
    n = 0
    gomaxprocs = 1
}
/^Benchmark/ {
    if (match($1, /-[0-9]+$/)) gomaxprocs = substr($1, RSTART + 1)
    pps = ""; allocs = ""; nsop = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "pps") pps = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "ns/op") nsop = $(i - 1)
    }
    if (pps == "") next   # skip benchmarks without a throughput metric
    if (allocs == "") allocs = "null"
    recs = recs (n++ ? ",\n" : "") \
        sprintf("    {\"name\": \"%s\", \"pps\": %s, \"ns_per_op\": %s, \"allocs_per_op\": %s}", $1, pps, nsop, allocs)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"burst\": %s,\n", date, burst
    printf "  \"nproc\": %s,\n  \"gomaxprocs\": %s,\n  \"go_version\": \"%s\",\n", nproc, gomaxprocs, goversion
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", recs
}
