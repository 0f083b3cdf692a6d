package timebase

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
	if want := time.Date(2015, time.February, 1, 0, 0, 0, 0, time.UTC); !Epoch.Equal(want) {
		t.Fatalf("epoch %v, want %v", Epoch, want)
	}
	if StudyDays != 394 {
		t.Fatalf("study is %d days; Feb 2015 through Feb 2016 should be 394", StudyDays)
	}
}

func TestRoundTrip(t *testing.T) {
	abs := time.Date(2015, time.July, 14, 10, 30, 0, 0, time.UTC)
	ts := FromTime(abs)
	if got := ts.Time(); !got.Equal(abs) {
		t.Fatalf("round trip %v != %v", got, abs)
	}
	if FromTime(Epoch) != 0 {
		t.Fatal("epoch should map to 0")
	}
}

func TestDSTBoundaries(t *testing.T) {
	// 2015: CEST begins Mar 29 01:00 UTC, ends Oct 25 01:00 UTC.
	cases := []struct {
		at   time.Time
		cest bool
	}{
		{time.Date(2015, time.March, 29, 0, 59, 0, 0, time.UTC), false},
		{time.Date(2015, time.March, 29, 1, 0, 0, 0, time.UTC), true},
		{time.Date(2015, time.July, 1, 12, 0, 0, 0, time.UTC), true},
		{time.Date(2015, time.October, 25, 0, 59, 0, 0, time.UTC), true},
		{time.Date(2015, time.October, 25, 1, 0, 0, 0, time.UTC), false},
		{time.Date(2016, time.January, 15, 12, 0, 0, 0, time.UTC), false},
	}
	for _, c := range cases {
		if got := IsCEST(c.at); got != c.cest {
			t.Errorf("IsCEST(%v) = %v, want %v", c.at, got, c.cest)
		}
	}
}

func TestHourOfDayLocal(t *testing.T) {
	// Winter: UTC+1. 11:00 UTC on Feb 1 is 12:00 local.
	ts := FromTime(time.Date(2015, time.February, 1, 11, 0, 0, 0, time.UTC))
	if h := ts.HourOfDay(); h != 12 {
		t.Fatalf("winter hour = %d, want 12", h)
	}
	// Summer: UTC+2.
	ts = FromTime(time.Date(2015, time.July, 1, 11, 0, 0, 0, time.UTC))
	if h := ts.HourOfDay(); h != 13 {
		t.Fatalf("summer hour = %d, want 13", h)
	}
}

func TestDayIndexing(t *testing.T) {
	// The epoch is 01:00 local on 2015-02-01, so day 0 is Feb 1.
	if d := T(0).Day(); d != 0 {
		t.Fatalf("epoch day = %d", d)
	}
	// 2015-02-02 00:30 local = 2015-02-01 23:30 UTC.
	ts := FromTime(time.Date(2015, time.February, 1, 23, 30, 0, 0, time.UTC))
	if d := ts.Day(); d != 1 {
		t.Fatalf("local-midnight crossing: day = %d, want 1", d)
	}
	if lbl := DayLabel(0); lbl != "2015-02-01" {
		t.Fatalf("day label %q", lbl)
	}
	if m := MonthOfDay(0); m != time.February {
		t.Fatalf("month of day 0: %v", m)
	}
	if m := MonthOfDay(40); m != time.March {
		t.Fatalf("month of day 40: %v", m)
	}
}

func TestSecondsIntoLocalDay(t *testing.T) {
	// 2015-02-01 12:34:56 local = 11:34:56 UTC.
	ts := FromTime(time.Date(2015, time.February, 1, 11, 34, 56, 0, time.UTC))
	want := int64(12*3600 + 34*60 + 56)
	if got := ts.SecondsIntoLocalDay(); got != want {
		t.Fatalf("seconds into day = %d, want %d", got, want)
	}
}

func TestAddSub(t *testing.T) {
	a := T(1000)
	b := a.Add(90 * time.Second)
	if b != 1090 {
		t.Fatalf("Add = %v", b)
	}
	if d := b.Sub(a); d != 90*time.Second {
		t.Fatalf("Sub = %v", d)
	}
}

func TestDayCoversWholeStudy(t *testing.T) {
	// Every second of the study maps to a day in [0, StudyDays].
	for _, sec := range []int64{0, 1, 3599, 86400, StudySeconds / 2, StudySeconds - 1} {
		d := T(sec).Day()
		if d < 0 || d > StudyDays {
			t.Fatalf("t=%d maps to day %d", sec, d)
		}
	}
}
