//! Tenant workload specifications.

/// Inter-arrival behaviour of a tenant's requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with the spec's mean rate.
    Poisson,
    /// On/off bursts: during a burst the instantaneous rate is
    /// `burst_factor ×` the mean; bursts cover `on_fraction` of time.
    /// The mean rate over a long horizon still equals the spec's `iops`.
    OnOff {
        /// Fraction of wall time spent bursting, in `(0, 1]`.
        on_fraction: f64,
        /// Mean burst length in requests.
        burst_len: u32,
    },
}

/// Spatial locality of a tenant's accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressPattern {
    /// Uniformly random pages.
    Uniform,
    /// Zipf-skewed pages (`theta` in `(0,1)`, higher = more skew).
    Zipf {
        /// Skew parameter.
        theta: f64,
    },
    /// Sequential runs: a random start followed by `run_len` consecutive
    /// requests walking forward.
    SequentialRuns {
        /// Requests per run.
        run_len: u32,
    },
}

/// Request size distribution (in pages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every request is `0`-field pages.
    Fixed(u32),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Smallest size.
        min: u32,
        /// Largest size.
        max: u32,
    },
}

impl SizeDist {
    /// Mean size in pages.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(n) => n as f64,
            SizeDist::Uniform { min, max } => (min as f64 + max as f64) / 2.0,
        }
    }
}

/// Full description of one tenant's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (trace name for MSR-like tenants).
    pub name: String,
    /// Fraction of requests that are writes, in `[0, 1]`.
    pub write_ratio: f64,
    /// Mean request rate in I/Os per second.
    pub iops: f64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Address pattern for both reads and writes.
    pub pattern: AddressPattern,
    /// Request size distribution.
    pub size: SizeDist,
    /// Logical page space of the tenant.
    pub lpn_space: u64,
}

impl TenantSpec {
    /// A plain synthetic tenant: Poisson arrivals, uniform single-page
    /// accesses over `lpn_space` pages.
    pub fn synthetic(name: impl Into<String>, write_ratio: f64, iops: f64, lpn_space: u64) -> Self {
        Self {
            name: name.into(),
            write_ratio,
            iops,
            arrival: ArrivalProcess::Poisson,
            pattern: AddressPattern::Uniform,
            size: SizeDist::Fixed(1),
            lpn_space,
        }
    }

    /// The paper's binary read/write characteristic: `true` when the
    /// tenant is read-dominated (feature value 1).
    #[cfg(test)]
    pub(crate) fn is_read_dominated(&self) -> bool {
        self.write_ratio < 0.5
    }

    /// Checks field sanity.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(0.0..=1.0).contains(&self.write_ratio) {
            return Err(SpecError::BadWriteRatio(self.write_ratio));
        }
        if self.iops <= 0.0 {
            return Err(SpecError::BadIops(self.iops));
        }
        if self.lpn_space == 0 {
            return Err(SpecError::EmptyLpnSpace);
        }
        match self.pattern {
            AddressPattern::Zipf { theta } if !(0.0 < theta && theta < 1.0) => {
                return Err(SpecError::BadZipfTheta(theta))
            }
            AddressPattern::SequentialRuns { run_len: 0 } => return Err(SpecError::EmptyRun),
            _ => {}
        }
        match self.size {
            SizeDist::Fixed(0) => return Err(SpecError::ZeroSize),
            SizeDist::Uniform { min, max } if min == 0 || min > max => {
                return Err(SpecError::BadSizeRange { min, max });
            }
            _ => {}
        }
        match self.arrival {
            ArrivalProcess::OnOff {
                on_fraction,
                burst_len,
            } => {
                if !(0.0 < on_fraction && on_fraction <= 1.0) {
                    return Err(SpecError::BadOnFraction(on_fraction));
                }
                if burst_len == 0 {
                    return Err(SpecError::EmptyBurst);
                }
            }
            ArrivalProcess::Poisson => {}
        }
        Ok(())
    }
}

/// Validation failures for [`TenantSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// write_ratio outside `[0, 1]`.
    BadWriteRatio(f64),
    /// Non-positive arrival rate.
    BadIops(f64),
    /// Zero-sized logical space.
    EmptyLpnSpace,
    /// Zipf theta outside `(0, 1)`.
    BadZipfTheta(f64),
    /// Zero-length sequential run.
    EmptyRun,
    /// Zero-page request size.
    ZeroSize,
    /// Invalid size range.
    BadSizeRange {
        /// Lower bound.
        min: u32,
        /// Upper bound.
        max: u32,
    },
    /// On-fraction outside `(0, 1]`.
    BadOnFraction(f64),
    /// Zero-length burst.
    EmptyBurst,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadWriteRatio(v) => write!(f, "write_ratio {v} outside [0,1]"),
            SpecError::BadIops(v) => write!(f, "iops {v} must be positive"),
            SpecError::EmptyLpnSpace => write!(f, "lpn_space must be non-zero"),
            SpecError::BadZipfTheta(v) => write!(f, "zipf theta {v} outside (0,1)"),
            SpecError::EmptyRun => write!(f, "sequential run length must be non-zero"),
            SpecError::ZeroSize => write!(f, "request size must be non-zero"),
            SpecError::BadSizeRange { min, max } => write!(f, "bad size range [{min},{max}]"),
            SpecError::BadOnFraction(v) => write!(f, "on_fraction {v} outside (0,1]"),
            SpecError::EmptyBurst => write!(f, "burst length must be non-zero"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_defaults_validate() {
        let s = TenantSpec::synthetic("t", 0.5, 1000.0, 1 << 16);
        s.validate().unwrap();
        assert_eq!(s.size.mean(), 1.0);
    }

    #[test]
    fn read_dominated_threshold() {
        assert!(TenantSpec::synthetic("r", 0.49, 1.0, 1).is_read_dominated());
        assert!(!TenantSpec::synthetic("w", 0.5, 1.0, 1).is_read_dominated());
    }

    #[test]
    fn validation_catches_each_field() {
        let base = TenantSpec::synthetic("t", 0.5, 1000.0, 1 << 10);
        let mut s = base.clone();
        s.write_ratio = 1.5;
        assert_eq!(s.validate(), Err(SpecError::BadWriteRatio(1.5)));
        let mut s = base.clone();
        s.iops = 0.0;
        assert_eq!(s.validate(), Err(SpecError::BadIops(0.0)));
        let mut s = base.clone();
        s.lpn_space = 0;
        assert_eq!(s.validate(), Err(SpecError::EmptyLpnSpace));
        let mut s = base.clone();
        s.pattern = AddressPattern::Zipf { theta: 1.0 };
        assert_eq!(s.validate(), Err(SpecError::BadZipfTheta(1.0)));
        let mut s = base.clone();
        s.pattern = AddressPattern::SequentialRuns { run_len: 0 };
        assert_eq!(s.validate(), Err(SpecError::EmptyRun));
        let mut s = base.clone();
        s.size = SizeDist::Fixed(0);
        assert_eq!(s.validate(), Err(SpecError::ZeroSize));
        let mut s = base.clone();
        s.size = SizeDist::Uniform { min: 4, max: 2 };
        assert_eq!(
            s.validate(),
            Err(SpecError::BadSizeRange { min: 4, max: 2 })
        );
        let mut s = base.clone();
        s.arrival = ArrivalProcess::OnOff {
            on_fraction: 0.0,
            burst_len: 5,
        };
        assert_eq!(s.validate(), Err(SpecError::BadOnFraction(0.0)));
        let mut s = base;
        s.arrival = ArrivalProcess::OnOff {
            on_fraction: 0.5,
            burst_len: 0,
        };
        assert_eq!(s.validate(), Err(SpecError::EmptyBurst));
    }

    #[test]
    fn size_means() {
        assert_eq!(SizeDist::Fixed(4).mean(), 4.0);
        assert_eq!(SizeDist::Uniform { min: 1, max: 3 }.mean(), 2.0);
    }

    #[test]
    fn error_display_covers_variants() {
        for e in [
            SpecError::BadWriteRatio(2.0),
            SpecError::BadIops(-1.0),
            SpecError::EmptyLpnSpace,
            SpecError::BadZipfTheta(0.0),
            SpecError::EmptyRun,
            SpecError::ZeroSize,
            SpecError::BadSizeRange { min: 2, max: 1 },
            SpecError::BadOnFraction(2.0),
            SpecError::EmptyBurst,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
