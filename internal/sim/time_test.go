package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDurationStd(t *testing.T) {
	if Second.Std() != time.Second {
		t.Fatal("Std conversion")
	}
	if Seconds(1.5).Std() != 1500*time.Millisecond {
		t.Fatal("fractional seconds")
	}
}

func TestTimeOrderingProperties(t *testing.T) {
	f := func(a, b int32) bool {
		ta, tb := Time(a), Time(b)
		if ta < tb {
			return tb.After(ta)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int32, delta int32) bool {
		t0 := Time(base)
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationStringSmoke(t *testing.T) {
	if Second.String() == "" || (5*Millisecond).String() == "" {
		t.Fatal("empty duration strings")
	}
}
