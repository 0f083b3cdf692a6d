package timebase

// Proleptic Gregorian civil-date arithmetic on day counts since 1970-01-01,
// after Howard Hinnant's era-based days_from_civil/civil_from_days. It is
// exact for every day count a T can reach and is the module's one
// civil-date implementation: local time here and the log timestamp codec
// in internal/eventlog both build on it.

// FloorDiv returns a/b rounded toward negative infinity (b > 0).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// floorMod returns a - b*FloorDiv(a, b), in [0, b) for b > 0.
func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// DaysFromCivil returns the number of days between 1970-01-01 and the civil
// date (y, m, d); negative before the Unix epoch.
func DaysFromCivil(y int64, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := FloorDiv(y, 400)
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // 719468 = days 0000-03-01..1970-01-01
}

// CivilFromDays inverts DaysFromCivil.
func CivilFromDays(z int64) (y int64, m, d int) {
	y, doy := marchYear(z)
	mp := (5*doy + 2) / 153 // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp) + 3
	} else {
		m = int(mp) - 9
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}

// marchYear splits a day count into the March-based year containing it
// (the civil year, minus one in January and February) and the zero-based
// day of that year counted from March 1, in [0, 365].
func marchYear(z int64) (y, doy int64) {
	z += 719468
	era := FloorDiv(z, 146097)
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	return yoe + era*400, doe - (365*yoe + yoe/4 - yoe/100)
}

// weekday returns the day of the week of a day count, Sunday == 0.
// 1970-01-01 was a Thursday.
func weekday(days int64) int64 { return floorMod(days+4, 7) }
