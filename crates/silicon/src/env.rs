//! Operating environment and technology-level delay scaling.
//!
//! All devices on a die share a common delay response to supply voltage
//! and junction temperature; [`Technology`] captures that response with an
//! alpha-power-law MOSFET model. The *per-device* deviations from the
//! common response live in [`crate::device::DelayUnit`].
//!
//! # Examples
//!
//! ```
//! use ropuf_silicon::env::{Environment, Technology};
//!
//! let tech = Technology::default();
//! let nominal = Environment::nominal();
//! // Scaling is normalized to 1 at the nominal point.
//! assert!((tech.delay_scale(nominal) - 1.0).abs() < 1e-12);
//! // Lower supply voltage makes everything slower.
//! let low_v = Environment::new(0.98, 25.0);
//! assert!(tech.delay_scale(low_v) > 1.0);
//! ```

/// An operating point: supply voltage and junction temperature.
///
/// This is passive data; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Supply voltage in volts.
    pub voltage_v: f64,
    /// Junction temperature in degrees Celsius.
    pub temperature_c: f64,
}

impl Environment {
    /// Nominal supply voltage used throughout the paper's dataset (1.20 V).
    pub const NOMINAL_VOLTAGE_V: f64 = 1.20;
    /// Nominal temperature used throughout the paper's dataset (25 °C).
    pub const NOMINAL_TEMPERATURE_C: f64 = 25.0;

    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if `voltage_v` is not finite and positive, or
    /// `temperature_c` is not finite.
    pub fn new(voltage_v: f64, temperature_c: f64) -> Self {
        assert!(
            voltage_v.is_finite() && voltage_v > 0.0,
            "supply voltage must be finite and positive, got {voltage_v}"
        );
        assert!(
            temperature_c.is_finite(),
            "temperature must be finite, got {temperature_c}"
        );
        Self {
            voltage_v,
            temperature_c,
        }
    }

    /// The paper's nominal operating point: 1.20 V, 25 °C.
    pub fn nominal() -> Self {
        Self::new(Self::NOMINAL_VOLTAGE_V, Self::NOMINAL_TEMPERATURE_C)
    }

    /// The five supply-voltage corners of the Virginia Tech dataset, at the
    /// given temperature: 0.98, 1.08, 1.20, 1.32, 1.44 V.
    pub fn voltage_sweep(temperature_c: f64) -> Vec<Environment> {
        [0.98, 1.08, 1.20, 1.32, 1.44]
            .iter()
            .map(|&v| Environment::new(v, temperature_c))
            .collect()
    }

    /// The five temperature corners of the Virginia Tech dataset, at the
    /// given voltage: 25, 35, 45, 55, 65 °C.
    pub fn temperature_sweep(voltage_v: f64) -> Vec<Environment> {
        [25.0, 35.0, 45.0, 55.0, 65.0]
            .iter()
            .map(|&t| Environment::new(voltage_v, t))
            .collect()
    }

    /// The full V×T corner grid of the Virginia Tech dataset: every
    /// combination of the five supply voltages and five temperatures
    /// (25 points, voltage-major order). Contains the nominal point and
    /// each of the four [`extreme_corners`](Self::extreme_corners)
    /// exactly once.
    pub fn corner_grid() -> Vec<Environment> {
        [0.98, 1.08, 1.20, 1.32, 1.44]
            .iter()
            .flat_map(|&v| {
                [25.0, 35.0, 45.0, 55.0, 65.0]
                    .iter()
                    .map(move |&t| Environment::new(v, t))
            })
            .collect()
    }

    /// The four extreme corners of the V/T grid — the points where both
    /// axes sit at a rail: (0.98 V, 25 °C), (0.98 V, 65 °C),
    /// (1.44 V, 25 °C), (1.44 V, 65 °C).
    pub fn extreme_corners() -> [Environment; 4] {
        [
            Environment::new(0.98, 25.0),
            Environment::new(0.98, 65.0),
            Environment::new(1.44, 25.0),
            Environment::new(1.44, 65.0),
        ]
    }
}

/// Maximum number of operating points a [`CornerSet`] can hold.
pub const MAX_CORNERS: usize = 8;

/// A small, fixed-capacity set of operating points for multi-corner
/// enrollment and selection.
///
/// `Copy` by design so it can ride inside option structs that are passed
/// by value throughout the enrollment pipeline. The set lists the
/// *evaluation* corners for configuration selection; the enrollment
/// environment itself is always evaluated and need not be listed (it is
/// deduplicated if present).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSet {
    corners: [Environment; MAX_CORNERS],
    len: u8,
}

impl CornerSet {
    /// The empty set: selection considers only the enrollment
    /// environment (the paper's nominal-only behavior).
    pub fn empty() -> Self {
        Self {
            corners: [Environment::nominal(); MAX_CORNERS],
            len: 0,
        }
    }

    /// Nominal plus the four [`Environment::extreme_corners`] — the
    /// standard worst-case evaluation set.
    pub fn worst_case() -> Self {
        let mut set = Self::empty();
        set.push(Environment::nominal());
        for c in Environment::extreme_corners() {
            set.push(c);
        }
        set
    }

    /// Builds a set from a slice.
    ///
    /// # Errors
    ///
    /// Returns a description if the slice holds more than
    /// [`MAX_CORNERS`] points or a duplicate point.
    pub fn try_from_slice(corners: &[Environment]) -> Result<Self, String> {
        if corners.len() > MAX_CORNERS {
            return Err(format!(
                "corner set holds at most {MAX_CORNERS} points, got {}",
                corners.len()
            ));
        }
        let mut set = Self::empty();
        for &c in corners {
            if set.as_slice().contains(&c) {
                return Err(format!("duplicate corner {c}"));
            }
            set.push(c);
        }
        Ok(set)
    }

    fn push(&mut self, env: Environment) {
        assert!((self.len as usize) < MAX_CORNERS, "corner set full");
        self.corners[self.len as usize] = env;
        self.len += 1;
    }

    /// The corners, in insertion order.
    pub fn as_slice(&self) -> &[Environment] {
        &self.corners[..self.len as usize]
    }

    /// Number of corners in the set.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty (nominal-only selection).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the corners in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Environment> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Default for CornerSet {
    fn default() -> Self {
        Self::empty()
    }
}

impl Default for Environment {
    fn default() -> Self {
        Self::nominal()
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} V / {:.0} °C", self.voltage_v, self.temperature_c)
    }
}

/// Technology-level (common-mode) delay response to the environment.
///
/// Gate delay follows the alpha-power law
/// `d ∝ V / (V − Vth(T))^α` scaled by a mobility term `(T/T₀)^m` in
/// kelvin, with a linearly temperature-dependent threshold voltage.
/// [`Technology::delay_scale`] normalizes the law to `1.0` at the nominal
/// operating point so device delays can be stored at nominal conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Threshold voltage at the nominal temperature, volts.
    pub vth0_v: f64,
    /// Threshold-voltage temperature coefficient, volts per °C (negative:
    /// Vth drops as the die heats up).
    pub vth_temp_coeff_v_per_c: f64,
    /// Velocity-saturation exponent α (≈1.3 for deep-submicron CMOS).
    pub alpha: f64,
    /// Carrier-mobility temperature exponent (delay ∝ (T_K/T₀_K)^m).
    pub mobility_exponent: f64,
    /// The operating point at which `delay_scale` equals 1.
    pub nominal: Environment,
}

impl Technology {
    /// Common-mode delay multiplier at `env`, relative to the nominal
    /// operating point.
    ///
    /// # Panics
    ///
    /// Panics if the supply voltage at `env` does not exceed the threshold
    /// voltage (the device would not switch).
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_silicon::env::{Environment, Technology};
    /// let tech = Technology::default();
    /// let hot = Environment::new(1.20, 65.0);
    /// let cold = Environment::new(1.20, 25.0);
    /// // Same voltage: scale changes only mildly with temperature.
    /// assert!((tech.delay_scale(hot) / tech.delay_scale(cold) - 1.0).abs() < 0.1);
    /// ```
    pub fn delay_scale(&self, env: Environment) -> f64 {
        self.raw_scale(env) / self.raw_scale(self.nominal)
    }

    /// Checks that the devices switch at `env`: its supply voltage must
    /// exceed the threshold voltage at its temperature, or
    /// [`delay_scale`](Self::delay_scale) panics.
    ///
    /// # Errors
    ///
    /// Names both voltages when the supply does not exceed the
    /// threshold.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_silicon::env::{Environment, Technology};
    /// let tech = Technology::default();
    /// assert!(tech.check_switches(Environment::new(0.98, 25.0)).is_ok());
    /// assert!(tech.check_switches(Environment::new(0.1, 25.0)).is_err());
    /// ```
    pub fn check_switches(&self, env: Environment) -> Result<(), String> {
        let vth = self.threshold_v(env);
        if env.voltage_v > vth {
            Ok(())
        } else {
            Err(format!(
                "supply voltage {} V does not exceed threshold {} V",
                env.voltage_v, vth
            ))
        }
    }

    fn threshold_v(&self, env: Environment) -> f64 {
        self.vth0_v + self.vth_temp_coeff_v_per_c * (env.temperature_c - self.nominal.temperature_c)
    }

    fn raw_scale(&self, env: Environment) -> f64 {
        if let Err(msg) = self.check_switches(env) {
            panic!("{msg}");
        }
        let overdrive = env.voltage_v - self.threshold_v(env);
        let t_k = env.temperature_c + 273.15;
        let t0_k = self.nominal.temperature_c + 273.15;
        let mobility = (t_k / t0_k).powf(self.mobility_exponent);
        mobility * env.voltage_v / overdrive.powf(self.alpha)
    }
}

impl Default for Technology {
    /// 90 nm-class parameters suited to the Spartan-3E era:
    /// `Vth = 0.50 V` at 25 °C falling 0.8 mV/°C, `α = 1.3`, mobility
    /// exponent `1.2`.
    fn default() -> Self {
        Self {
            vth0_v: 0.50,
            vth_temp_coeff_v_per_c: -8.0e-4,
            alpha: 1.3,
            mobility_exponent: 1.2,
            nominal: Environment::nominal(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scale_is_unity() {
        let tech = Technology::default();
        assert!((tech.delay_scale(Environment::nominal()) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn lower_voltage_is_slower() {
        let tech = Technology::default();
        let mut prev = f64::INFINITY;
        for &v in &[0.98, 1.08, 1.20, 1.32, 1.44] {
            let s = tech.delay_scale(Environment::new(v, 25.0));
            assert!(s < prev, "delay scale should fall as V rises");
            prev = s;
        }
    }

    #[test]
    fn voltage_sweep_magnitude_is_plausible() {
        // ~20-40% slower at 0.98 V than at 1.20 V for 90 nm-class silicon.
        let tech = Technology::default();
        let s = tech.delay_scale(Environment::new(0.98, 25.0));
        assert!(s > 1.15 && s < 1.6, "got {s}");
    }

    #[test]
    fn temperature_effect_is_secondary() {
        let tech = Technology::default();
        let s = tech.delay_scale(Environment::new(1.20, 65.0));
        assert!((s - 1.0).abs() < 0.2, "got {s}");
        // Mobility loss dominates the Vth drop at nominal voltage: hotter
        // is slower.
        assert!(s > 1.0);
    }

    #[test]
    #[should_panic(expected = "does not exceed threshold")]
    fn subthreshold_voltage_panics() {
        let tech = Technology::default();
        let _ = tech.delay_scale(Environment::new(0.4, 25.0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn environment_rejects_nonpositive_voltage() {
        let _ = Environment::new(0.0, 25.0);
    }

    #[test]
    fn sweeps_have_five_points_and_contain_nominal() {
        let vs = Environment::voltage_sweep(25.0);
        assert_eq!(vs.len(), 5);
        assert!(vs.contains(&Environment::nominal()));
        let ts = Environment::temperature_sweep(1.20);
        assert_eq!(ts.len(), 5);
        assert!(ts.contains(&Environment::nominal()));
    }

    #[test]
    fn display_formats_units() {
        let e = Environment::new(1.08, 45.0);
        assert_eq!(e.to_string(), "1.08 V / 45 °C");
    }

    #[test]
    fn corner_grid_contains_nominal_and_extremes_exactly_once() {
        let grid = Environment::corner_grid();
        assert_eq!(grid.len(), 25);
        let count = |p: &Environment| grid.iter().filter(|g| *g == p).count();
        assert_eq!(count(&Environment::nominal()), 1);
        for corner in Environment::extreme_corners() {
            assert_eq!(count(&corner), 1, "extreme corner {corner}");
        }
        // The grid is exactly the cross product: no duplicates anywhere.
        for (i, a) in grid.iter().enumerate() {
            assert!(!grid[i + 1..].contains(a), "duplicate {a}");
        }
    }

    #[test]
    fn corner_set_is_bounded_and_deduplicated() {
        assert!(CornerSet::empty().is_empty());
        let worst = CornerSet::worst_case();
        assert_eq!(worst.len(), 5);
        assert_eq!(worst.as_slice()[0], Environment::nominal());
        for corner in Environment::extreme_corners() {
            assert!(worst.as_slice().contains(&corner));
        }
        let too_many: Vec<Environment> = Environment::corner_grid();
        assert!(CornerSet::try_from_slice(&too_many)
            .unwrap_err()
            .contains("at most"));
        let dup = [Environment::nominal(), Environment::nominal()];
        assert!(CornerSet::try_from_slice(&dup)
            .unwrap_err()
            .contains("duplicate"));
        let ok = CornerSet::try_from_slice(&Environment::extreme_corners()).unwrap();
        assert_eq!(ok.iter().count(), 4);
    }
}
