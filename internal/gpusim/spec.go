// Package gpusim simulates a CUDA-capable GPU executing kernels from
// multiple streams. It is the repository's substitute for cuDNN on real
// NVIDIA hardware: a deterministic fluid (processor-sharing) model in
// which each kernel carries the arithmetic work, memory traffic, and
// thread-block count of the real operator, and the device model captures
// the four effects IOS exploits:
//
//  1. a kernel with few thread blocks cannot occupy all streaming
//     multiprocessors (SMs), so small-batch CNN operators under-utilize
//     big GPUs;
//  2. kernels from different streams share the SM pool, so concurrent
//     execution recovers utilization;
//  3. co-running kernels share memory bandwidth and suffer cache
//     contention, so too much concurrency backfires;
//  4. kernel-launch and stage-synchronization overheads punish schedules
//     with many tiny stages.
//
// The simulator is event-driven over a fluid rate model: at every event
// boundary each running kernel is assigned an SM allocation and a memory-
// bandwidth share, giving it a completion rate; the earliest completion is
// the next event. All arithmetic is deterministic.
package gpusim

// Spec describes a simulated GPU. Presets below are calibrated to the
// published specifications of the devices used in the paper.
//
// Every field influences simulated latency, so every field is
// fp:"include": the measurement cache's context key (measure.Context)
// must encode all of them. blockcache's TestKeyEncodersCoverIncludeFields
// perturbs each field and fails unless an included one moves the key, so
// a field added here is either encoded there or explicitly tagged
// fp:"exempt".
type Spec struct {
	// Name identifies the device in reports. It is part of cache
	// identity too: presets share numeric parameters across generations
	// often enough that dropping Name from the key aliased distinct
	// devices once already (PR 4).
	Name string `fp:"include"`
	// SMs is the number of streaming multiprocessors.
	SMs int `fp:"include"`
	// PeakFLOPs is the whole-device single-precision peak, FLOP/s.
	PeakFLOPs float64 `fp:"include"`
	// MemBandwidth is the DRAM bandwidth in bytes/s.
	MemBandwidth float64 `fp:"include"`
	// BlocksPerSM is the maximum number of resident thread blocks per SM.
	BlocksPerSM int `fp:"include"`
	// WarpsPerSM is the maximum number of resident warps per SM.
	WarpsPerSM int `fp:"include"`
	// WarpsForPeak is the number of resident warps per SM required to
	// reach per-SM peak throughput; below it, throughput scales linearly
	// (latency hiding fails with too few eligible warps, Section 6.3).
	WarpsForPeak int `fp:"include"`
	// KernelLaunch is the serialized per-kernel launch overhead in
	// seconds (driver + dispatch), paid on the kernel's stream.
	KernelLaunch float64 `fp:"include"`
	// StageSync is the per-stage synchronization overhead in seconds
	// (event wait / stream sync at stage barriers).
	StageSync float64 `fp:"include"`
	// ContentionCoef is the fractional memory-system slowdown added per
	// extra co-running kernel (shared L2 / DRAM row conflicts). Low-end
	// parts have higher coefficients, which is why the same schedule can
	// win on a V100 and lose on a K80 (Section 1).
	ContentionCoef float64 `fp:"include"`
	// MaxConcurrentKernels bounds hardware-concurrent kernels (CUDA
	// limit is 32-128 depending on architecture).
	MaxConcurrentKernels int `fp:"include"`
}

// Preset devices. Peak numbers follow the paper's Figure 1 and vendor
// datasheets.
var (
	// TeslaV100 is the paper's primary evaluation device (Volta, 80 SMs,
	// 15.7 TFLOP/s FP32, 900 GB/s HBM2).
	TeslaV100 = Spec{
		Name: "Tesla V100", SMs: 80, PeakFLOPs: 15.7e12, MemBandwidth: 900e9,
		BlocksPerSM: 16, WarpsPerSM: 64, WarpsForPeak: 16,
		KernelLaunch: 4e-6, StageSync: 5e-6, ContentionCoef: 0.08,
		MaxConcurrentKernels: 128,
	}
	// TeslaK80 is one GK210 die of the K80 board (Kepler, 13 SMs,
	// 2.8 TFLOP/s FP32, 240 GB/s). Used for device specialization
	// (Table 3).
	TeslaK80 = Spec{
		Name: "Tesla K80", SMs: 13, PeakFLOPs: 2.8e12, MemBandwidth: 240e9,
		BlocksPerSM: 16, WarpsPerSM: 64, WarpsForPeak: 24,
		KernelLaunch: 8e-6, StageSync: 10e-6, ContentionCoef: 0.18,
		MaxConcurrentKernels: 32,
	}
	// RTX2080Ti is the Turing device of Appendix B (68 SMs,
	// 13.4 TFLOP/s FP32, 616 GB/s).
	RTX2080Ti = Spec{
		Name: "RTX 2080Ti", SMs: 68, PeakFLOPs: 13.4e12, MemBandwidth: 616e9,
		BlocksPerSM: 16, WarpsPerSM: 32, WarpsForPeak: 12,
		KernelLaunch: 3.5e-6, StageSync: 5e-6, ContentionCoef: 0.09,
		MaxConcurrentKernels: 128,
	}
	// GTX1080 represents 2015-era hardware in Figure 1 (20 SMs,
	// 8.4 TFLOP/s after the paper's 8425 GFLOP/s, 320 GB/s).
	GTX1080 = Spec{
		Name: "GTX 1080", SMs: 20, PeakFLOPs: 8.425e12, MemBandwidth: 320e9,
		BlocksPerSM: 32, WarpsPerSM: 64, WarpsForPeak: 16,
		KernelLaunch: 5e-6, StageSync: 10e-6, ContentionCoef: 0.08,
		MaxConcurrentKernels: 32,
	}
	// GTX980Ti represents 2013-era hardware in Figure 1 (22 SMs,
	// 5.77 TFLOP/s, 336 GB/s).
	GTX980Ti = Spec{
		Name: "GTX 980Ti", SMs: 22, PeakFLOPs: 5.767e12, MemBandwidth: 336e9,
		BlocksPerSM: 32, WarpsPerSM: 64, WarpsForPeak: 16,
		KernelLaunch: 5e-6, StageSync: 10e-6, ContentionCoef: 0.08,
		MaxConcurrentKernels: 32,
	}
	// TeslaA100 is mentioned in the introduction (108 SMs, 19.5 TFLOP/s,
	// 1555 GB/s); included for forward-looking experiments.
	TeslaA100 = Spec{
		Name: "Tesla A100", SMs: 108, PeakFLOPs: 19.5e12, MemBandwidth: 1555e9,
		BlocksPerSM: 16, WarpsPerSM: 64, WarpsForPeak: 16,
		KernelLaunch: 3.5e-6, StageSync: 7e-6, ContentionCoef: 0.03,
		MaxConcurrentKernels: 128,
	}
)

// SpecByName returns the preset with the given name, matching loosely
// (case-sensitive substring keys "v100", "k80", "2080", "1080", "980",
// "a100"), and false if unknown.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "v100", "V100", TeslaV100.Name:
		return TeslaV100, true
	case "k80", "K80", TeslaK80.Name:
		return TeslaK80, true
	case "2080ti", "2080Ti", RTX2080Ti.Name:
		return RTX2080Ti, true
	case "1080", "gtx1080", GTX1080.Name:
		return GTX1080, true
	case "980ti", "gtx980ti", GTX980Ti.Name:
		return GTX980Ti, true
	case "a100", "A100", TeslaA100.Name:
		return TeslaA100, true
	}
	return Spec{}, false
}

// PerSMPeak returns the per-SM single-precision peak in FLOP/s.
func (s Spec) PerSMPeak() float64 { return s.PeakFLOPs / float64(s.SMs) }
