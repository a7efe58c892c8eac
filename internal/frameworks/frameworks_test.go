package frameworks

import (
	"context"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
)

func TestFrameworkOrderingOnInception(t *testing.T) {
	// The Figure 7 ordering: TensorFlow slowest, TensorRT the fastest
	// sequential engine, IOS fastest overall.
	g := models.InceptionV3(1)
	lat := map[string]float64{}
	for _, f := range CuDNNBaselines() {
		m, err := f.Measure(context.Background(), g, gpusim.TeslaV100)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if m.Latency <= 0 {
			t.Fatalf("%s: nonpositive latency", f.Name)
		}
		lat[f.Name] = m.Latency
	}
	if lat["Tensorflow"] <= lat["Tensorflow-XLA"] {
		t.Error("XLA should beat plain TensorFlow")
	}
	if lat["Tensorflow-XLA"] <= lat["TensorRT"] {
		t.Error("TensorRT should beat TensorFlow-XLA")
	}
	prof := profile.New(gpusim.TeslaV100)
	res, err := core.OptimizeContext(context.Background(), g, prof, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ios, err := prof.MeasureSchedule(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range lat {
		if ios >= l {
			t.Errorf("IOS (%g) not faster than %s (%g)", ios, name, l)
		}
	}
	// Paper: IOS achieves 1.1-1.5x over TASO/TVM/TensorRT. Allow a wide
	// but meaningful band.
	speedup := lat["TensorRT"] / ios
	if speedup < 1.05 || speedup > 2.0 {
		t.Errorf("IOS/TensorRT speedup = %.2f, expected within [1.05, 2.0]", speedup)
	}
}

func TestTASOMergesButStaysSequential(t *testing.T) {
	// TASO on the Figure 2 block can merge {a? no — a,c,d share input}:
	// merge substitutions apply, but no stage may run concurrent groups.
	g := models.Figure2Block(1)
	m, err := TASO.Measure(context.Background(), g, gpusim.TeslaV100)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range m.Schedule.Stages {
		if len(st.Groups) > 1 {
			t.Errorf("TASO stage uses concurrent groups: %v", st)
		}
	}
}

func TestAutoTuneWinsOnSepConvNets(t *testing.T) {
	if testing.Short() {
		t.Skip("full RandWire optimization")
	}
	// Figure 12: TVM-AutoTune beats IOS on RandWire (separable convs
	// dominate), and IOS beats TVM-AutoTune on Inception V3.
	rw := models.RandWire(1)
	mTVM, err := TVMAutoTune.Measure(context.Background(), rw, gpusim.TeslaV100)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(gpusim.TeslaV100)
	res, err := core.OptimizeContext(context.Background(), rw, prof, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iosRW, err := prof.MeasureSchedule(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if mTVM.Latency >= iosRW {
		t.Errorf("TVM-AutoTune (%g) should beat IOS (%g) on RandWire", mTVM.Latency, iosRW)
	}

	inc := models.InceptionV3(1)
	mTVM2, err := TVMAutoTune.Measure(context.Background(), inc, gpusim.TeslaV100)
	if err != nil {
		t.Fatal(err)
	}
	prof2 := profile.New(gpusim.TeslaV100)
	res2, err := core.OptimizeContext(context.Background(), inc, prof2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iosInc, err := prof2.MeasureSchedule(res2.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if iosInc >= mTVM2.Latency {
		t.Errorf("IOS (%g) should beat TVM-AutoTune (%g) on Inception", iosInc, mTVM2.Latency)
	}
	if mTVM2.OptimizationCost <= 0 {
		t.Error("AutoTune must report a tuning cost")
	}
}

func TestDistinctKernelCounting(t *testing.T) {
	g := models.SqueezeNet(1)
	n := distinctKernels(g)
	if n <= 0 || n > 50 {
		t.Errorf("distinct kernels = %d", n)
	}
	// Repeated fire modules share kernel signatures, so the count must
	// be below the raw conv count.
	if convs := g.ComputeStats().Convs; n >= convs {
		t.Errorf("no signature sharing: %d distinct of %d convs", n, convs)
	}
}
