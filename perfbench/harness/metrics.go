package harness

// MetricDef names a metric and its unit; BENCHMARK.json declares the same
// lists.
type MetricDef struct{ Name, Unit string }

// StageNames are the pipeline stages of the facade's Plan().Stages, in
// schedule order.
var StageNames = []string{"dominate", "color", "announce", "csa", "elect", "followers", "tree", "backbone", "inform"}

// EndToEnd lists the metrics an untraced run reports.
func EndToEnd() []MetricDef {
	return []MetricDef{
		{"op_wall_s", "s"},
		{"setup_s", "s"},
	}
}

// PerLayer lists the metrics a traced run reports. Times and counts are
// means over the run's traced operations, each summed over the
// operation's simulation runs.
func PerLayer() []MetricDef {
	defs := []MetricDef{
		{"sim.step_s", "s"},
		{"sim.slots", "count"},
		{"sim.actions", "count"},
		{"sim.step_ns_per_slot", "ns"},
	}
	for _, st := range StageNames {
		defs = append(defs,
			MetricDef{"stage." + st + ".step_s", "s"},
			MetricDef{"stage." + st + ".resolve_s", "s"},
			MetricDef{"stage." + st + ".slots", "count"},
			MetricDef{"stage." + st + ".pairs", "count"})
	}
	defs = append(defs,
		MetricDef{"phy.resolve_s", "s"},
		MetricDef{"phy.pairs", "count"},
		MetricDef{"phy.resolve_ns_per_pair", "ns"},
		MetricDef{"phy.decodes", "count"},
		MetricDef{"phy.decode_ratio", "ratio"},
		MetricDef{"phy.max_slot_s", "s"},
		MetricDef{"fault.hook_s", "s"},
		MetricDef{"fault.lost", "count"},
		MetricDef{"fault.corrupted", "count"},
		MetricDef{"fault.dropped", "count"},
		MetricDef{"batch.item_s", "s"},
		MetricDef{"batch.busy_frac", "ratio"},
	)
	for _, b := range []string{"sec7", "dplus1", "hsb"} {
		defs = append(defs,
			MetricDef{"coloring." + b + ".wall_s", "s"},
			MetricDef{"coloring." + b + ".step_s", "s"},
			MetricDef{"coloring." + b + ".color_slots", "count"})
	}
	return append(defs,
		MetricDef{"tdma.verify_s", "s"},
		MetricDef{"go.allocs_per_op", "count"},
		MetricDef{"go.gc_cycles", "count"},
		MetricDef{"go.goroutines_peak", "count"},
		MetricDef{"peak_heap_bytes", "bytes"},
		MetricDef{"trace_overhead_frac", "ratio"},
		MetricDef{"trace_span_coverage", "ratio"},
	)
}
