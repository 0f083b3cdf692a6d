// Package timebase defines the study clock.
//
// The study window is February 2015 through February 2016 (inclusive), at
// the Barcelona Supercomputing Center. All simulation time is kept as
// seconds since the study epoch (UTC); presentation-level analyses (hour of
// day, day index, month) use local wall time under the CET/CEST rules.
//
// Local time is pure integer arithmetic on Unix seconds: one DST rule
// (isCEST) and the civil-date helpers in civil.go, so the hot per-event
// lookups neither allocate nor depend on a tzdata database being
// installed. The time package is used only at the edges, where a caller
// asks for a time.Time or a rendered string (Time, String, ToLocal).
package timebase

import (
	"fmt"
	"time"
)

const (
	secondsPerDay = 86400

	// epochUnix is the study epoch, 2015-02-01 00:00:00 UTC, as Unix
	// seconds; epochDay is the same instant as days since 1970-01-01.
	epochUnix = 1422748800
	epochDay  = epochUnix / secondsPerDay

	// Barcelona's UTC offsets.
	cetOffset  = 1 * 3600
	cestOffset = 2 * 3600
)

// Epoch is the first instant of the study, 2015-02-01 00:00:00 UTC.
var Epoch = time.Unix(epochUnix, 0).UTC()

// End is the first instant after the study, 2016-03-01 00:00:00 UTC
// ("February 2015 to February 2016 inclusive").
var End = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

// StudyDays is the number of whole days in the window.
var StudyDays = int(End.Sub(Epoch) / (24 * time.Hour))

// StudySeconds is the window length in seconds.
var StudySeconds = int64(End.Sub(Epoch) / time.Second)

// T is simulation time: seconds since Epoch. Negative values are before the
// study and never produced by the simulator.
type T int64

// FromTime converts an absolute time to study time.
func FromTime(t time.Time) T { return T(t.Sub(Epoch) / time.Second) }

// Time converts study time back to an absolute UTC time.
func (t T) Time() time.Time { return time.Unix(int64(t)+epochUnix, 0).UTC() }

// Add returns the study time shifted by d.
func (t T) Add(d time.Duration) T { return t + T(d/time.Second) }

// Sub returns the duration t - u.
func (t T) Sub(u T) time.Duration { return time.Duration(t-u) * time.Second }

// local returns t as seconds since 1970-01-01 00:00 of Barcelona wall time.
func (t T) local() int64 {
	unix := int64(t) + epochUnix
	if isCEST(unix) {
		return unix + cestOffset
	}
	return unix + cetOffset
}

// Day returns the zero-based day index of t in local wall time. The epoch
// is 2015-02-01 01:00 local (CET), so day 0 covers the remainder of
// 2015-02-01 local.
func (t T) Day() int { return int(FloorDiv(t.local(), secondsPerDay) - epochDay) }

// HourOfDay returns the local hour (0-23) of t.
func (t T) HourOfDay() int { return int(t.SecondsIntoLocalDay() / 3600) }

// SecondsIntoLocalDay returns how far t is into its local calendar day, by
// the wall clock.
func (t T) SecondsIntoLocalDay() int64 { return floorMod(t.local(), secondsPerDay) }

// Month returns the local calendar month of t.
func (t T) Month() time.Month {
	_, m, _ := CivilFromDays(FloorDiv(t.local(), secondsPerDay))
	return time.Month(m)
}

// String renders as local wall-clock time.
func (t T) String() string { return ToLocal(t.Time()).Format("2006-01-02 15:04:05") }

// isCEST reports whether Unix time unix falls in Central European Summer
// Time: from 01:00 UTC on the last Sunday of March until 01:00 UTC on the
// last Sunday of October.
//
// Both transitions are found within the instant's March-based year, whose
// day 30 is March 31 and day 244 is October 31; a last Sunday is that day
// minus its weekday. at, start and end count seconds from 00:00 UTC on
// that year's March 1. January and February (days 306 onward) fall after
// October and so are never summer time.
func isCEST(unix int64) bool {
	days := FloorDiv(unix, secondsPerDay)
	_, doy := marchYear(days)
	mar1 := days - doy
	const mar31, oct31 = 30, 244
	start := (mar31-weekday(mar1+mar31))*secondsPerDay + 3600
	end := (oct31-weekday(mar1+oct31))*secondsPerDay + 3600
	at := doy*secondsPerDay + (unix - days*secondsPerDay)
	return at >= start && at < end
}

// IsCEST reports whether the instant falls in Central European Summer
// Time: from 01:00 UTC on the last Sunday of March until 01:00 UTC on the
// last Sunday of October.
func IsCEST(t time.Time) bool { return isCEST(t.Unix()) }

// The two fixed-offset locations are shared: time.FixedZone allocates a
// fresh *Location on every call.
var (
	zoneCEST = time.FixedZone("CEST", cestOffset)
	zoneCET  = time.FixedZone("CET", cetOffset)
)

// ToLocal converts an instant to Barcelona wall time (CET/CEST) using a
// fixed-offset location, independent of the host tz database.
func ToLocal(t time.Time) time.Time {
	if IsCEST(t) {
		return t.In(zoneCEST)
	}
	return t.In(zoneCET)
}

// DayLabel renders a zero-based study day index as a local date.
func DayLabel(day int) string {
	y, m, d := CivilFromDays(epochDay + int64(day))
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// MonthOfDay returns the local calendar month containing the given study day.
func MonthOfDay(day int) time.Month {
	_, m, _ := CivilFromDays(epochDay + int64(day))
	return time.Month(m)
}

// Validate reports an error if the window constants are inconsistent; used
// by tests.
func Validate() error {
	if !End.After(Epoch) {
		return fmt.Errorf("timebase: end %v not after epoch %v", End, Epoch)
	}
	if StudyDays < 300 || StudyDays > 500 {
		return fmt.Errorf("timebase: suspicious study length %d days", StudyDays)
	}
	return nil
}
