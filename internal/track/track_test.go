package track

import "testing"

func TestDirection(t *testing.T) {
	if Outbound.String() != "outbound" || Inbound.String() != "inbound" {
		t.Error("direction strings wrong")
	}
	if Outbound.Opposite() != Inbound || Inbound.Opposite() != Outbound {
		t.Error("Opposite wrong")
	}
}

func TestRailModeString(t *testing.T) {
	if SingleRail.String() != "single-rail" || DualRail.String() != "dual-rail" {
		t.Error("mode strings wrong")
	}
}
