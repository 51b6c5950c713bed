//! Minimal civil-time handling for log timestamps.
//!
//! The study spans 2001 days of wall-clock time; every analysis that buckets
//! by hour-of-day, day-of-week, or calendar day needs a civil decomposition
//! of Unix timestamps. We implement the small subset we need (proleptic
//! Gregorian date conversion, Howard Hinnant's `days_from_civil` algorithm)
//! instead of pulling in a calendar crate. All timestamps are UTC.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// Seconds in one minute.
pub const SECS_PER_MIN: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A point in time, stored as whole seconds since the Unix epoch (UTC).
///
/// Log records in all four Mira sources carry second-granularity timestamps,
/// so sub-second precision is intentionally not represented.
///
/// # Examples
///
/// ```
/// use bgq_model::time::Timestamp;
///
/// let t = Timestamp::from_ymd_hms(2013, 4, 9, 0, 0, 0);
/// assert_eq!(t.to_string(), "2013-04-09 00:00:00");
/// assert_eq!(t.hour_of_day(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

/// A signed span of time in whole seconds.
///
/// # Examples
///
/// ```
/// use bgq_model::time::Span;
///
/// let s = Span::from_hours(3) + Span::from_secs(30);
/// assert_eq!(s.as_secs(), 3 * 3600 + 30);
/// assert!((s.as_days() - 0.12534722).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(i64);

impl Span {
    /// A zero-length span.
    pub const ZERO: Span = Span(0);

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: i64) -> Self {
        Span(secs)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: i64) -> Self {
        Span(mins * SECS_PER_MIN)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: i64) -> Self {
        Span(hours * SECS_PER_HOUR)
    }

    /// Creates a span of `days` days.
    pub const fn from_days(days: i64) -> Self {
        Span(days * SECS_PER_DAY)
    }

    /// The span length in whole seconds.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// The span length in fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / SECS_PER_HOUR as f64
    }

    /// The span length in fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / SECS_PER_DAY as f64
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.unsigned_abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        let days = total / SECS_PER_DAY as u64;
        let hours = (total % SECS_PER_DAY as u64) / SECS_PER_HOUR as u64;
        let mins = (total % SECS_PER_HOUR as u64) / SECS_PER_MIN as u64;
        let secs = total % SECS_PER_MIN as u64;
        if days > 0 {
            write!(f, "{sign}{days}d{hours:02}h{mins:02}m{secs:02}s")
        } else if hours > 0 {
            write!(f, "{sign}{hours}h{mins:02}m{secs:02}s")
        } else if mins > 0 {
            write!(f, "{sign}{mins}m{secs:02}s")
        } else {
            write!(f, "{sign}{secs}s")
        }
    }
}

impl Add for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl Sub for Span {
    type Output = Span;
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

/// Returns the number of days since 1970-01-01 for a proleptic Gregorian
/// civil date (Howard Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`]: civil `(year, month, day)` for a Unix day
/// number.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (y + i64::from(m <= 2), m, d)
}

impl Timestamp {
    /// The Unix epoch, 1970-01-01 00:00:00 UTC.
    pub const UNIX_EPOCH: Timestamp = Timestamp(0);

    /// The first day of Mira production operation used throughout this
    /// reproduction as the default trace origin (2013-04-09, a Tuesday).
    pub const MIRA_EPOCH: Timestamp = Timestamp(1_365_465_600);

    /// Creates a timestamp from seconds since the Unix epoch.
    pub const fn from_secs(secs: i64) -> Self {
        Timestamp(secs)
    }

    /// Creates a timestamp from a civil UTC date and time.
    ///
    /// # Panics
    ///
    /// Panics if `month`/`day`/`hour`/`min`/`sec` are outside their civil
    /// ranges (months 1–12, days 1–31, hours 0–23, minutes/seconds 0–59).
    pub fn from_ymd_hms(year: i64, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        assert!(hour < 24 && min < 60 && sec < 60, "time out of range");
        let days = days_from_civil(year, month, day);
        Timestamp(
            days * SECS_PER_DAY
                + i64::from(hour) * SECS_PER_HOUR
                + i64::from(min) * SECS_PER_MIN
                + i64::from(sec),
        )
    }

    /// Seconds since the Unix epoch.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// The Unix day number (days since 1970-01-01, floor division).
    pub const fn day_number(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// The civil `(year, month, day)` of this instant in UTC.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.day_number())
    }

    /// Hour of the UTC day, `0..24`.
    pub fn hour_of_day(self) -> u32 {
        (self.0.rem_euclid(SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Day of the week, `0 = Monday .. 6 = Sunday`.
    pub fn day_of_week(self) -> u32 {
        // 1970-01-01 was a Thursday (weekday index 3 with Monday = 0).
        ((self.day_number() + 3).rem_euclid(7)) as u32
    }

    /// Time elapsed from `earlier` to `self` (may be negative).
    pub fn since(self, earlier: Timestamp) -> Span {
        Span(self.0 - earlier.0)
    }
}

impl Add<Span> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Span) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Timestamp {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Span) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub for Timestamp {
    type Output = Span;
    fn sub(self, rhs: Timestamp) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        let rem = self.0.rem_euclid(SECS_PER_DAY);
        let (h, mi, s) = (
            rem / SECS_PER_HOUR,
            (rem % SECS_PER_HOUR) / SECS_PER_MIN,
            rem % SECS_PER_MIN,
        );
        write!(f, "{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

/// Error produced when parsing a [`Timestamp`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimestampError {
    input: String,
}

impl fmt::Display for ParseTimestampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseTimestampError {}

impl FromStr for Timestamp {
    type Err = ParseTimestampError;

    /// Parses either `"YYYY-MM-DD HH:MM:SS"` or a raw integer of epoch
    /// seconds.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseTimestampError {
            input: s.to_owned(),
        };
        if let Ok(secs) = s.parse::<i64>() {
            return Ok(Timestamp(secs));
        }
        let bytes = s.as_bytes();
        if bytes.len() != 19 || bytes[4] != b'-' || bytes[7] != b'-' || bytes[10] != b' ' {
            return Err(err());
        }
        let num = |range: std::ops::Range<usize>| -> Result<i64, ParseTimestampError> {
            s.get(range)
                .and_then(|t| t.parse::<i64>().ok())
                .ok_or_else(err)
        };
        let (y, m, d) = (num(0..4)?, num(5..7)?, num(8..10)?);
        let (h, mi, sec) = (num(11..13)?, num(14..16)?, num(17..19)?);
        if !(1..=12).contains(&m)
            || !(1..=31).contains(&d)
            || !(0..24).contains(&h)
            || !(0..60).contains(&mi)
            || !(0..60).contains(&sec)
        {
            return Err(err());
        }
        Ok(Timestamp(
            days_from_civil(y, m as u32, d as u32) * SECS_PER_DAY
                + h * SECS_PER_HOUR
                + mi * SECS_PER_MIN
                + sec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Timestamp::UNIX_EPOCH.day_number(), 0);
        assert_eq!(Timestamp::UNIX_EPOCH.ymd(), (1970, 1, 1));
        assert_eq!(Timestamp::UNIX_EPOCH.to_string(), "1970-01-01 00:00:00");
    }

    #[test]
    fn epoch_was_a_thursday() {
        assert_eq!(Timestamp::UNIX_EPOCH.day_of_week(), 3);
    }

    #[test]
    fn mira_epoch_matches_civil_date() {
        assert_eq!(Timestamp::MIRA_EPOCH.ymd(), (2013, 4, 9));
        // 2013-04-09 was a Tuesday.
        assert_eq!(Timestamp::MIRA_EPOCH.day_of_week(), 1);
    }

    #[test]
    fn civil_roundtrip_across_leap_years() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1999, 12, 31),
            (2000, 2, 29),
            (2013, 4, 9),
            (2016, 2, 29),
            (2018, 9, 30),
            (2100, 3, 1),
        ] {
            let t = Timestamp::from_ymd_hms(y, m, d, 12, 34, 56);
            assert_eq!(t.ymd(), (y, m, d), "roundtrip failed for {y}-{m}-{d}");
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let t = Timestamp::from_ymd_hms(2015, 7, 16, 3, 4, 5);
        let shown = t.to_string();
        assert_eq!(shown.parse::<Timestamp>().unwrap(), t);
    }

    #[test]
    fn parse_epoch_seconds() {
        assert_eq!(
            "1365465600".parse::<Timestamp>().unwrap(),
            Timestamp::MIRA_EPOCH
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "2015-07-16",
            "2015/07/16 03:04:05",
            "2015-13-16 03:04:05",
            "x",
        ] {
            assert!(bad.parse::<Timestamp>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn span_display_formats() {
        assert_eq!(Span::from_secs(5).to_string(), "5s");
        assert_eq!(Span::from_secs(65).to_string(), "1m05s");
        assert_eq!(Span::from_secs(3665).to_string(), "1h01m05s");
        assert_eq!(Span::from_days(2).to_string(), "2d00h00m00s");
        assert_eq!(Span::from_secs(-90).to_string(), "-1m30s");
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::MIRA_EPOCH;
        let later = t + Span::from_days(2001);
        assert_eq!((later - t).as_days(), 2001.0);
        assert_eq!(later.since(t).as_secs(), 2001 * SECS_PER_DAY);
        assert!(t.since(later).as_secs() < 0);
    }

    #[test]
    fn hour_and_weekday_buckets() {
        let t = Timestamp::from_ymd_hms(2013, 4, 13, 23, 59, 59); // Saturday
        assert_eq!(t.hour_of_day(), 23);
        assert_eq!(t.day_of_week(), 5);
    }

    #[test]
    fn negative_timestamps_decompose_correctly() {
        let t = Timestamp::from_secs(-1);
        assert_eq!(t.ymd(), (1969, 12, 31));
        assert_eq!(t.hour_of_day(), 23);
    }
}
