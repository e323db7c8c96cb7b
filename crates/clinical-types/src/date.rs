//! A minimal proleptic-Gregorian calendar date.
//!
//! Clinical records are time-stamped (screening attendances, diagnosis
//! dates). The workspace only needs day-resolution dates with total
//! ordering and day arithmetic, so we implement the civil-calendar
//! conversion directly (Howard Hinnant's `days_from_civil` algorithm)
//! instead of depending on a calendar crate.

use crate::error::{Error, Result};
use std::fmt;

/// A calendar date (proleptic Gregorian), valid for any year in
/// `i32` range. Ordered chronologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Days since the civil epoch 1970-01-01 (may be negative).
    days: i64,
}

const DAYS_IN_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days from 1970-01-01 to `year-month-day` (Hinnant's algorithm).
fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(month);
    let d = i64::from(day);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

impl Date {
    /// Construct a date, validating the calendar components.
    pub fn new(year: i32, month: u32, day: u32) -> Result<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(Error::InvalidDate { year, month, day });
        }
        Ok(Date {
            days: days_from_civil(year, month, day),
        })
    }

    /// Construct directly from a day count since 1970-01-01.
    pub fn from_days_since_epoch(days: i64) -> Self {
        Date { days }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    pub fn days_since_epoch(&self) -> i64 {
        self.days
    }

    /// Calendar year.
    pub fn year(&self) -> i32 {
        civil_from_days(self.days).0
    }

    /// Calendar month, 1–12.
    pub fn month(&self) -> u32 {
        civil_from_days(self.days).1
    }

    /// Day of month, 1–31.
    pub fn day(&self) -> u32 {
        civil_from_days(self.days).2
    }

    /// The date `n` days after (`n` may be negative).
    pub fn plus_days(&self, n: i64) -> Self {
        Date {
            days: self.days + n,
        }
    }

    /// Whole days from `earlier` to `self` (negative if `self` is earlier).
    pub fn days_since(&self, earlier: Date) -> i64 {
        self.days - earlier.days
    }

    /// Whole years elapsed from `birth` to `self` — clinical "age on
    /// test date" semantics (birthday not yet reached ⇒ previous year).
    pub fn years_since(&self, birth: Date) -> i32 {
        let (by, bm, bd) = civil_from_days(birth.days);
        let (y, m, d) = civil_from_days(self.days);
        let mut years = y - by;
        if (m, d) < (bm, bd) {
            years -= 1;
        }
        years
    }

    /// Parse `"YYYY-MM-DD"`.
    pub fn parse_iso(s: &str) -> Result<Self> {
        let mut parts = s.splitn(3, '-');
        let bad = || Error::invalid(format!("malformed ISO date `{s}`"));
        let year: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Date::new(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = civil_from_days(self.days);
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_day_zero() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.days_since_epoch(), 0);
        assert_eq!(d.to_string(), "1970-01-01");
    }

    #[test]
    fn known_day_counts() {
        assert_eq!(Date::new(1970, 1, 2).unwrap().days_since_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().days_since_epoch(), -1);
        // 2000-03-01 is 11017 days after the epoch.
        assert_eq!(Date::new(2000, 3, 1).unwrap().days_since_epoch(), 11017);
    }

    #[test]
    fn leap_year_rules() {
        assert!(Date::new(2000, 2, 29).is_ok()); // divisible by 400
        assert!(Date::new(1900, 2, 29).is_err()); // divisible by 100 only
        assert!(Date::new(2012, 2, 29).is_ok()); // divisible by 4
        assert!(Date::new(2013, 2, 29).is_err());
    }

    #[test]
    fn rejects_out_of_range_components() {
        assert!(Date::new(2013, 0, 1).is_err());
        assert!(Date::new(2013, 13, 1).is_err());
        assert!(Date::new(2013, 4, 31).is_err());
        assert!(Date::new(2013, 4, 0).is_err());
    }

    #[test]
    fn ordering_is_chronological() {
        let a = Date::new(2005, 6, 1).unwrap();
        let b = Date::new(2005, 6, 2).unwrap();
        let c = Date::new(2006, 1, 1).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn age_semantics_respect_birthday() {
        let birth = Date::new(1950, 6, 15).unwrap();
        let before = Date::new(2013, 6, 14).unwrap();
        let on = Date::new(2013, 6, 15).unwrap();
        assert_eq!(before.years_since(birth), 62);
        assert_eq!(on.years_since(birth), 63);
    }

    #[test]
    fn parse_iso_round_trip() {
        let d = Date::parse_iso("2013-04-09").unwrap();
        assert_eq!((d.year(), d.month(), d.day()), (2013, 4, 9));
        assert_eq!(d.to_string(), "2013-04-09");
        assert!(Date::parse_iso("2013/04/09").is_err());
        assert!(Date::parse_iso("not-a-date").is_err());
    }

    proptest! {
        #[test]
        fn civil_round_trips_through_days(days in -1_000_000i64..1_000_000) {
            let d = Date::from_days_since_epoch(days);
            let rebuilt = Date::new(d.year(), d.month(), d.day()).unwrap();
            prop_assert_eq!(rebuilt.days_since_epoch(), days);
        }

        #[test]
        fn plus_days_is_additive(days in -100_000i64..100_000, a in -5_000i64..5_000, b in -5_000i64..5_000) {
            let d = Date::from_days_since_epoch(days);
            prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
        }

        #[test]
        fn days_since_is_antisymmetric(x in -100_000i64..100_000, y in -100_000i64..100_000) {
            let a = Date::from_days_since_epoch(x);
            let b = Date::from_days_since_epoch(y);
            prop_assert_eq!(a.days_since(b), -b.days_since(a));
        }
    }
}
