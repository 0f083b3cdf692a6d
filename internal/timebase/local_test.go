package timebase

import (
	"fmt"
	"testing"
	"time"
	_ "time/tzdata" // the oracle must not depend on the host tz database
)

// madrid is the independent oracle for local time: the tz database's
// Europe/Madrid zone (Barcelona's), whose rules since 1996 are the EU rule
// the integer arithmetic implements.
var madrid = func() *time.Location {
	loc, err := time.LoadLocation("Europe/Madrid")
	if err != nil {
		panic(err)
	}
	return loc
}()

// checkOracle asserts every local-time view of ts against the tz database.
func checkOracle(tb testing.TB, ts T) {
	if msg := oracleMismatch(ts); msg != "" {
		tb.Helper()
		tb.Fatal(msg)
	}
}

// oracleMismatch describes the first local-time view of ts that disagrees
// with the tz database, or returns "".
func oracleMismatch(ts T) string {
	unix := int64(ts) + Epoch.Unix()
	_, off := time.Unix(unix, 0).In(madrid).Zone()
	// The wall clock, as a UTC-tagged time so the field reads below do
	// not repeat the zone lookup.
	w := time.Unix(unix+int64(off), 0).UTC()
	y, m, d := w.Date()
	hh, mm, ss := w.Clock()
	wantDay := int((time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() - Epoch.Unix()) / 86400)
	wantSec := int64(hh*3600 + mm*60 + ss)
	var buf [19]byte
	switch {
	case ts.Day() != wantDay:
		return fmt.Sprintf("T(%d) %v: Day = %d, want %d", ts, w, ts.Day(), wantDay)
	case ts.HourOfDay() != hh:
		return fmt.Sprintf("T(%d) %v: HourOfDay = %d, want %d", ts, w, ts.HourOfDay(), hh)
	case ts.SecondsIntoLocalDay() != wantSec:
		return fmt.Sprintf("T(%d) %v: SecondsIntoLocalDay = %d, want %d", ts, w, ts.SecondsIntoLocalDay(), wantSec)
	case ts.Month() != m:
		return fmt.Sprintf("T(%d) %v: Month = %v, want %v", ts, w, ts.Month(), m)
	case IsCEST(ts.Time()) != (off == 2*3600):
		return fmt.Sprintf("T(%d) %v: IsCEST = %v, zone offset %d", ts, w, IsCEST(ts.Time()), off)
	case ts.String() != string(appendWall(buf[:0], y, int(m), d, hh, mm, ss)):
		return fmt.Sprintf("T(%d): String = %q, want %q", ts, ts.String(), w.Format("2006-01-02 15:04:05"))
	}
	return ""
}

// appendWall renders a wall-clock reading in T.String's layout. The sweep
// checks millions of instants, and this is several times cheaper than a
// second time.Format per instant.
func appendWall(b []byte, y, m, d, hh, mm, ss int) []byte {
	b = append(b, byte('0'+y/1000%10), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10))
	for i, v := range [...]int{m, d, hh, mm, ss} {
		b = append(b, "-- ::"[i], byte('0'+v/10), byte('0'+v%10))
	}
	return b
}

// TestLocalTimeAtEveryDSTTransition checks both clock changes of every
// year 1996–2037, as the tz database records them, at the instant itself
// and ±1 s and ±1 h around it.
func TestLocalTimeAtEveryDSTTransition(t *testing.T) {
	for y := 1996; y <= 2037; y++ {
		summer := time.Date(y, time.July, 1, 12, 0, 0, 0, time.UTC).In(madrid)
		start, end := summer.ZoneBounds()
		if start.Month() != time.March || end.Month() != time.October {
			t.Fatalf("%d: tz database CEST span %v .. %v", y, start, end)
		}
		for _, edge := range []time.Time{start, end} {
			for _, d := range []int64{-3600, -1, 0, 1, 3600} {
				checkOracle(t, T(edge.Unix()+d-Epoch.Unix()))
			}
		}
	}
}

// TestLocalTimeDenseStudyWindow checks every 7th second (every 997th under
// -short) of the study window widened by 400 days on each side.
func TestLocalTimeDenseStudyWindow(t *testing.T) {
	stride := int64(7)
	if testing.Short() {
		stride = 997
	}
	const margin = 400 * 86400
	for s := int64(-margin); s < StudySeconds+margin; s += stride {
		checkOracle(t, T(s))
	}
}

// TestLocalTimeAllocatesNothing pins the per-event lookups to zero
// allocations.
func TestLocalTimeAllocatesNothing(t *testing.T) {
	ts := T(StudySeconds / 3)
	allocs := testing.AllocsPerRun(100, func() {
		localTimeSink += int64(ts.Day()) + int64(ts.HourOfDay()) + ts.SecondsIntoLocalDay() + int64(ts.Month())
		ts += 12345
	})
	if allocs != 0 {
		t.Fatalf("local-time lookups allocate %.1f times per call", allocs)
	}
}

// FuzzLocalTime checks arbitrary instants from 1996 (the start of today's
// EU rule) to 300 years after the epoch against the tz database.
func FuzzLocalTime(f *testing.F) {
	for _, edge := range []time.Time{
		time.Date(2015, time.March, 29, 1, 0, 0, 0, time.UTC),
		time.Date(2015, time.October, 25, 1, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 27, 1, 0, 0, 0, time.UTC),
		time.Date(2016, time.October, 30, 1, 0, 0, 0, time.UTC),
	} {
		for _, d := range []int64{-1, 0, 1} {
			f.Add(edge.Unix() + d - Epoch.Unix())
		}
	}
	lo := time.Date(1996, time.January, 1, 0, 0, 0, 0, time.UTC).Unix() - Epoch.Unix()
	hi := Epoch.AddDate(300, 0, 0).Unix() - Epoch.Unix()
	f.Fuzz(func(t *testing.T, s int64) {
		if s < lo || s >= hi {
			s = lo + (s%(hi-lo)+(hi-lo))%(hi-lo)
		}
		checkOracle(t, T(s))
	})
}

// localTimeSink keeps the benchmarked lookups from being optimized away.
var localTimeSink int64

// BenchmarkLocalTime measures one local-time lookup over instants spread
// across the study.
func BenchmarkLocalTime(b *testing.B) {
	const n = 1 << 12
	var at [n]T
	for i := range at {
		at[i] = T(int64(i) * (StudySeconds / n))
	}
	b.Run("HourOfDay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			localTimeSink += int64(at[i%n].HourOfDay())
		}
	})
	b.Run("Day", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			localTimeSink += int64(at[i%n].Day())
		}
	})
	b.Run("Month", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			localTimeSink += int64(at[i%n].Month())
		}
	})
	b.Run("SecondsIntoLocalDay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			localTimeSink += at[i%n].SecondsIntoLocalDay()
		}
	})
}
