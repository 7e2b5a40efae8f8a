package main

// The metric and workload catalogue. BENCHMARK.json at the repository
// root repeats these names, units, directions and bounds; a test keeps
// the two equal, so the driver, its README and the gate agree.

// metricDef names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is reported by every workload of an untraced run. The host
// bounds were fixed from repeat runs on the 2-core box (see README.md:
// its speed shifts by a quarter for minutes at a time, which no
// estimator inside a run removes, so the wall-clock and RSS bounds are
// as wide as a bound may be; the allocation counts repeat to well under
// a percent). sim_us_per_op repeats exactly, so its bound only has to be
// smaller than any real change of a modeled cost.
var endToEnd = []metricDef{
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_alloc_bytes_per_op", "B", "lower", 0.03},
	{"host_allocs_per_op", "count", "lower", 0.02},
	{"host_peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_us_per_op", "sim_us", "lower", 0.000001},
}

// perLayer is reported by every workload of a traced run. The prefix
// is the module under internal/ the number belongs to (gc/runtime for
// the Go runtime, bench for the harness); _host_ is the host clock,
// _sim_ the simulated clock, a bare name an exact count. A workload
// reports 0 for a layer that is not on its path.
var perLayer = []metricDef{
	{"sw26010.launch_host_us", "us", "lower", 0},
	{"sw26010.dma_bytes_per_op", "B", "lower", 0},
	{"sw26010.rlc_msgs_per_op", "count", "lower", 0},
	{"sw26010.flops_per_op", "count", "lower", 0},

	{"swdnn.gemm128_host_us", "us", "lower", 0},
	{"swdnn.gemm_ragged_host_us", "us", "lower", 0},
	{"swdnn.conv_host_us", "us", "lower", 0},
	{"swdnn.sum_host_us", "us", "lower", 0},
	{"swdnn.gemm128_sim_us", "sim_us", "lower", 0},
	{"swdnn.gemm_ragged_sim_us", "sim_us", "lower", 0},
	{"swdnn.conv_sim_us", "sim_us", "lower", 0},
	{"swdnn.plan_cold_host_us", "us", "lower", 0},
	{"swdnn.plan_warm_host_ns", "ns", "lower", 0},
	{"swdnn.plan_cache_hit_ratio", "ratio", "higher", 0},

	{"swnode.launch_host_us", "us", "lower", 0},
	{"swnode.launches_per_step", "count", "lower", 0},

	{"core.fwd_bwd_host_us", "us", "lower", 0},
	{"core.solver_update_host_us", "us", "lower", 0},
	{"core.pack_host_us", "us", "lower", 0},
	{"core.net_build_host_us", "us", "lower", 0},
	{"core.net_build_alloc_bytes", "B", "lower", 0},

	{"models.cost_host_us", "us", "lower", 0},
	{"experiments.micro_host_ms", "ms", "lower", 0},
	{"experiments.table2_host_ms", "ms", "lower", 0},
	{"experiments.table3_host_ms", "ms", "lower", 0},
	{"experiments.fig8_9_host_ms", "ms", "lower", 0},
	{"experiments.fig10_11_host_ms", "ms", "lower", 0},
	{"experiments.ablations_host_ms", "ms", "lower", 0},
	{"experiments.output_bytes", "B", "lower", 0},
	{"experiments.tab3_err_pct", "%", "lower", 0},

	{"simnet.run_empty_p8_host_us", "us", "lower", 0},
	{"simnet.run_empty_p32_host_us", "us", "lower", 0},
	{"simnet.sendrecv_host_us", "us", "lower", 0},
	{"simnet.msgs_per_op", "count", "lower", 0},

	{"des.run_empty_host_us", "us", "lower", 0},
	{"des.sendrecv_host_ns", "ns", "lower", 0},
	{"des.alloc_bytes_per_msg", "B", "lower", 0},
	{"des.msgs_per_host_s", "1/s", "higher", 0},

	{"allreduce.rhd_host_ms", "ms", "lower", 0},
	{"allreduce.rhd_alloc_bytes", "B", "lower", 0},
	{"allreduce.rhd_sim_us", "sim_us", "lower", 0},
	{"allreduce.rhd_cross_bytes", "B", "lower", 0},
	{"allreduce.ring_host_ms", "ms", "lower", 0},
	{"allreduce.ring_alloc_bytes", "B", "lower", 0},
	{"allreduce.ring_sim_us", "sim_us", "lower", 0},
	{"allreduce.ring_cross_bytes", "B", "lower", 0},
	{"allreduce.hier_host_ms", "ms", "lower", 0},
	{"allreduce.hier_alloc_bytes", "B", "lower", 0},
	{"allreduce.hier_sim_us", "sim_us", "lower", 0},
	{"allreduce.hier_cross_bytes", "B", "lower", 0},
	{"allreduce.cost_model_max_rel_err", "ratio", "lower", 0},

	{"collective.select_plan_host_us", "us", "lower", 0},
	{"collective.buckets_per_step", "count", "lower", 0},
	{"collective.comm_sim_us", "sim_us", "lower", 0},
	{"collective.exposed_sim_us", "sim_us", "lower", 0},
	{"collective.priced_vs_realized_max_rel", "ratio", "lower", 0},
	{"collective.msgs_per_step", "count", "lower", 0},
	{"collective.cross_bytes_per_step", "B", "lower", 0},

	{"pario.read_sim_us", "sim_us", "lower", 0},
	{"pario.exposed_sim_us", "sim_us", "lower", 0},
	{"pario.stripe_pick", "count", "lower", 0},
	{"pario.select_stripe_host_us", "us", "lower", 0},
	{"dataset.load_shards_host_us", "us", "lower", 0},

	{"elastic.ckpt_save_host_ms", "ms", "lower", 0},
	{"elastic.ckpt_restore_host_ms", "ms", "lower", 0},
	{"elastic.ckpt_bytes", "B", "lower", 0},

	{"obs.traced_step_host_ms", "ms", "lower", 0},
	{"obs.spans_per_step", "count", "lower", 0},

	{"train.new_trainer_host_ms", "ms", "lower", 0},
	{"train.new_trainer_alloc_bytes", "B", "lower", 0},
	{"train.first_step_host_ms", "ms", "lower", 0},
	{"train.step_host_ms", "ms", "lower", 0},
	{"train.step_host_p90_ms", "ms", "lower", 0},
	{"train.step_alloc_bytes", "B", "lower", 0},
	{"train.close_host_ms", "ms", "lower", 0},
	{"train.cg_step_host_us", "us", "lower", 0},
	{"train.cg_step_sim_us", "sim_us", "lower", 0},
	{"train.compute_sim_us", "sim_us", "lower", 0},
	{"train.step_sim_us", "sim_us", "lower", 0},
	{"train.scaling_eff", "ratio", "higher", 0},
	{"train.unattributed_host_pct", "%", "lower", 0},

	{"gc.cpu_frac", "ratio", "lower", 0},
	{"gc.cycles_per_op", "count", "lower", 0},
	{"gc.pause_ms_per_op", "ms", "lower", 0},
	{"runtime.cpu_s_per_op", "s", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},

	{"bench.batch_p50_ms", "ms", "lower", 0},
	{"bench.batch_p90_ms", "ms", "lower", 0},
	{"bench.batches", "count", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.span_self_sum_pct", "%", "higher", 0},
}

// workload is one set of inputs the benchmark runs. batch is the
// number of ops timed as one sample; build is the whole set-up, from
// generated inputs to one warm-up op.
type workload struct {
	Name  string
	Why   string
	batch int
	build func(e *env) (instance, error)
}

var workloads = []workload{
	{"paper_eval", "the headline deliverable: all 18 paper tables and figures; planner and cost models only, so kernel, simnet and DES changes must not move it",
		10, newPaperEval},
	{"node_mesh", "everything on one simulated SW26010: mesh GEMM and conv kernels plus a 4-CG Algorithm-1 step; zero inter-node traffic",
		100, newNodeMesh},
	{"dist_train_p8", "the full step model (compute, comm, input, checkpoints) on the goroutine oracle backend at p=8, where per-step orchestration and per-round copies dominate",
		250, newDistTrain},
	{"sweep_des_p1024", "paper scale: barrier, overlap and hierarchical arms at p=1024 on the DES backend; latency-bound, ~10^5 small messages a step",
		1, newSweepDES},
	{"allreduce_bw", "the same all-reduce code used the other way: 32 ranks, 4 MiB per rank on simnet; bandwidth-bound, per-byte copy and reduce",
		3, newAllreduceBW},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
