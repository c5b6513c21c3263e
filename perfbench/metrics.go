package main

// metricDecl names one reported metric and its unit. The lists below
// must match BENCHMARK.json (a self-test checks it).
type metricDecl struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. An "operation" is one mining pipeline on the mining
// workloads and one HTTP request on serve.
var endToEnd = []metricDecl{
	// Median set-up time: input generation, plus mining, compiling and
	// starting the server (serve), or spawning the shard workers and the
	// cold blob transfer (shard-tcp). Building binaries is excluded.
	{"setup_s", "s"},
	// Median wall time from the dataset in memory to the final tables;
	// on serve, of repeated minings of the served table in blocks spread
	// over the run.
	{"mine_s", "s"},
	// Heap allocated per operation (runtime TotalAlloc delta); on the
	// mining workloads the least over the repetitions.
	{"alloc_mb", "MB"},
	// High-water RSS of the benchmark process, plus the shard workers'.
	{"peak_rss_mb", "MB"},
	// serve: translated rows per second; mining: dataset rows / mine_s.
	{"rows_per_s", "1/s"},
	// serve: request latency over every request of the window; mining:
	// time per rule of SELECT(1) (one round), each round's median over
	// the repetitions.
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer its pipeline does not use is probed once on the
// workload's own data where that is cheap (see FINDINGS.md), EXACT on
// car, and counts of a layer that cannot run there (wire traffic off
// shard-tcp) are 0.
var perLayer = []metricDecl{
	{"eclat.busy_s", "s"},
	{"eclat.candidates", "count"},
	{"eclat.alloc_mb", "MB"},

	{"select.busy_s", "s"},
	{"select.rounds", "count"},
	{"select.round_ms_p50", "ms"},
	{"select.round_ms_max", "ms"},
	{"select.evals", "count"},

	{"greedy.busy_s", "s"},
	{"greedy.rules", "count"},

	// The EXACT probe (EXACT on car), the same on every workload.
	{"exact.busy_s", "s"},
	{"exact.rules", "count"},
	{"exact.iter_s_first", "s"},
	{"exact.iter_s_last", "s"},

	{"state.new_ms", "ms"},
	{"state.new_alloc_mb", "MB"},
	{"state.gain_ns", "ns"},
	{"state.apply_us", "us"},

	{"bitset.words", "count"},
	{"bitset.andcount_ns_per_word", "ns"},
	{"bitset.intersectsum_ns_per_word", "ns"},
	{"bitset.computed_gbps", "GB/s"},

	{"pool.speedup", "ratio"},
	{"pool.phase_us", "us"},

	{"translator.compile_us", "us"},
	{"translator.match_ns_per_row", "ns"},

	{"server.single_p50_ms", "ms"},
	{"server.batch_p50_ms", "ms"},
	{"server.single_json_us", "us"},
	{"server.batch_json_us", "us"},
	{"server.single_overhead_us", "us"},
	{"server.batch_overhead_us", "us"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"server.alloc_kb_per_req", "KB"},

	{"shard.inproc_s", "s"},
	{"shard.monolith_s", "s"},

	{"wire.frames", "count"},
	{"wire.bytes", "B"},
	{"wire.bytes_per_rule", "B"},
	{"wire.setup_bytes", "B"},

	{"trace.overhead", "ratio"},
	{"trace.unaccounted", "ratio"},
}
