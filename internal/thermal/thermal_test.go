package thermal

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestSinkValidation(t *testing.T) {
	if (Sink{Name: "bad", Resistance: 0, Capacitance: 1}).Validate() == nil {
		t.Error("zero resistance must be invalid")
	}
	if (Sink{Name: "bad", Resistance: 1, Capacitance: 0}).Validate() == nil {
		t.Error("zero capacitance must be invalid")
	}
	if BareM2.Validate() != nil || ConductiveFins.Validate() != nil {
		t.Error("catalogue sinks must validate")
	}
}

func TestSteadyState(t *testing.T) {
	// Fins: 30 + 10×3 = 60 °C — under the 70 °C ceiling.
	approx(t, "fins steady", ConductiveFins.SteadyTemp(10, DefaultAmbient), 60, 1e-12)
	// Bare: 30 + 10×12 = 150 °C — far over.
	approx(t, "bare steady", BareM2.SteadyTemp(10, DefaultAmbient), 150, 1e-12)
}

func TestTimeToThrottle(t *testing.T) {
	// Fins never throttle at 10 W.
	if !math.IsInf(float64(ConductiveFins.TimeToThrottle(10, DefaultAmbient)), 1) {
		t.Error("fins must sustain 10 W indefinitely")
	}
	// Bare sticks throttle in finite time; the temperature at that moment
	// is the ceiling.
	tt := BareM2.TimeToThrottle(10, DefaultAmbient)
	if math.IsInf(float64(tt), 1) || tt <= 0 {
		t.Fatalf("bare throttle time = %v", tt)
	}
	steady := BareM2.SteadyTemp(10, DefaultAmbient)
	atThrottle := steady + (DefaultAmbient-steady)*math.Exp(-float64(tt)/float64(BareM2.TimeConstant()))
	approx(t, "temp at throttle", atThrottle, ThrottleTemp, 1e-6)
}

func TestSustainablePower(t *testing.T) {
	// Fins sustain (70−30)/3 ≈ 13.3 W — full M.2 load fits.
	approx(t, "fins sustainable", float64(ConductiveFins.SustainablePower(DefaultAmbient)), 40.0/3, 1e-9)
	// Bare sustains only 3.3 W.
	approx(t, "bare sustainable", float64(BareM2.SustainablePower(DefaultAmbient)), 40.0/12, 1e-9)
}

func TestAnalyzeCart(t *testing.T) {
	fins := CartThermals{Sink: ConductiveFins, NumSSDs: 32, Ambient: DefaultAmbient}
	a, err := Analyze(fins)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalHeat != 320 {
		t.Errorf("total heat = %v, want 320 W", a.TotalHeat)
	}
	if !a.SustainedFullLoad || a.SustainableReadFraction != 1 {
		t.Errorf("fins must sustain full load: %+v", a)
	}

	bare := CartThermals{Sink: BareM2, NumSSDs: 32, Ambient: DefaultAmbient}
	b, err := Analyze(bare)
	if err != nil {
		t.Fatal(err)
	}
	if b.SustainedFullLoad {
		t.Error("bare sticks must not sustain full load")
	}
	if b.SustainableReadFraction >= 0.5 {
		t.Errorf("bare sustainable fraction = %v, want < 0.5", b.SustainableReadFraction)
	}
	if math.IsInf(float64(b.TimeToThrottle), 1) {
		t.Error("bare sticks must throttle eventually")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(CartThermals{Sink: ConductiveFins, NumSSDs: 0}); err == nil {
		t.Error("zero SSDs must error")
	}
	if _, err := Analyze(CartThermals{Sink: Sink{}, NumSSDs: 4}); err == nil {
		t.Error("invalid sink must error")
	}
}

func TestHotterAisleShrinksBudget(t *testing.T) {
	cool := ConductiveFins.SustainablePower(25)
	hot := ConductiveFins.SustainablePower(45)
	if hot >= cool {
		t.Error("hotter ambient must shrink the power budget")
	}
	cart := CartThermals{Sink: ConductiveFins, NumSSDs: 32, Ambient: 45}
	a, err := Analyze(cart)
	if err != nil {
		t.Fatal(err)
	}
	if a.SustainableReadFraction >= 1 {
		t.Error("45 °C ambient should force some throttling on 3 K/W fins")
	}
}
