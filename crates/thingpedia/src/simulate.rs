//! Simulated device implementations.
//!
//! The paper's Thingpedia skills call real web services and IoT devices; this
//! module substitutes them with deterministic, seeded simulators so that any
//! well-typed program over the builtin library can be *executed* by the
//! ThingTalk runtime. The simulator:
//!
//! * produces rows whose values match the declared output-parameter types,
//!   sampling strings and entities from the parameter-value datasets;
//! * is deterministic given the seed, the function, and the virtual tick, so
//!   tests and benchmarks are reproducible;
//! * appends new rows / changes single results as virtual time advances, so
//!   monitors and edge filters actually trigger;
//! * records every action invocation for inspection.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thingtalk::ast::FunctionRef;
use thingtalk::class::{FunctionDef, ParamDef};
use thingtalk::error::{Error, Result};
use thingtalk::runtime::{DeviceDelegate, ExecContext, ResultRow};
use thingtalk::typecheck::SchemaRegistry;
use thingtalk::types::Type;
use thingtalk::units::{BaseUnit, Unit};
use thingtalk::value::{DateValue, LocationValue, Value};

use crate::params::ParamDatasets;
use crate::Thingpedia;

/// How many virtual ticks pass between simulated data changes.
const CHANGE_PERIOD: u64 = 3;

/// A [`DeviceDelegate`] that simulates every function in a [`Thingpedia`]
/// library.
#[derive(Debug, Clone)]
pub struct SimulatedDevices {
    library: Thingpedia,
    datasets: &'static ParamDatasets,
    seed: u64,
    performed_actions: Vec<(FunctionRef, ResultRow)>,
}

impl SimulatedDevices {
    /// Create a simulator over the given library with the given seed.
    pub fn new(library: Thingpedia, seed: u64) -> Self {
        SimulatedDevices {
            library,
            datasets: ParamDatasets::builtin(),
            seed,
            performed_actions: Vec::new(),
        }
    }

    /// Simulator over the full builtin library.
    pub fn builtin(seed: u64) -> Self {
        SimulatedDevices::new(Thingpedia::builtin(), seed)
    }

    /// Actions the simulator has been asked to perform, in order.
    pub fn performed_actions(&self) -> &[(FunctionRef, ResultRow)] {
        &self.performed_actions
    }

    fn function(&self, function: &FunctionRef) -> Result<&FunctionDef> {
        self.library
            .function(&function.class, &function.function)
            .ok_or_else(|| Error::UnknownFunction {
                class: function.class.clone(),
                function: function.function.clone(),
            })
    }

    fn row_seed(&self, function: &FunctionRef, row: usize, epoch: u64) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.seed.hash(&mut hasher);
        function.class.hash(&mut hasher);
        function.function.hash(&mut hasher);
        row.hash(&mut hasher);
        epoch.hash(&mut hasher);
        hasher.finish()
    }

    fn generate_row(
        &self,
        def: &FunctionDef,
        function: &FunctionRef,
        params: &ResultRow,
        row: usize,
        epoch: u64,
    ) -> ResultRow {
        let mut rng = StdRng::seed_from_u64(self.row_seed(function, row, epoch));
        let mut out = ResultRow::new();
        for param in def.output_params() {
            let value = self.generate_value(param, params, &mut rng);
            out.insert(param.name.clone(), value);
        }
        out
    }

    fn generate_value(&self, param: &ParamDef, inputs: &ResultRow, rng: &mut StdRng) -> Value {
        // If a string input parameter exists (e.g. a search query), weave it
        // into text outputs occasionally so filters over inputs make sense.
        let input_text = inputs.values().find_map(|v| match v {
            Value::String(s) => Some(s.clone()),
            _ => None,
        });
        match &param.ty {
            Type::String => {
                let base = self.datasets.sample_for_param(&param.ty, &param.name, rng);
                match (&input_text, rng.gen_bool(0.5)) {
                    (Some(query), true) => Value::String(format!("{base} about {query}")),
                    _ => Value::String(base),
                }
            }
            Type::Number => Value::Number((rng.gen_range(0..10_000) as f64) / 10.0),
            Type::Boolean => Value::Boolean(rng.gen_bool(0.5)),
            Type::Enum(variants) => {
                let idx = rng.gen_range(0..variants.len().max(1));
                Value::Enum(variants.get(idx).cloned().unwrap_or_default())
            }
            Type::Measure(base) => {
                let (amount, unit): (f64, Unit) = match base {
                    BaseUnit::Byte => (rng.gen_range(1.0..2000.0), Unit::Megabyte),
                    BaseUnit::Millisecond => (rng.gen_range(1.0..180.0), Unit::Minute),
                    BaseUnit::Meter => (rng.gen_range(0.1..500.0), Unit::Kilometer),
                    BaseUnit::Celsius => (rng.gen_range(-10.0..40.0), Unit::Celsius),
                    BaseUnit::Gram => (rng.gen_range(40.0..120.0), Unit::Kilogram),
                    BaseUnit::MeterPerSecond => (rng.gen_range(0.0..40.0), Unit::MeterPerSecond),
                    BaseUnit::Calorie => (rng.gen_range(50.0..900.0), Unit::Kilocalorie),
                    BaseUnit::BeatPerMinute => (rng.gen_range(50.0..180.0), Unit::BeatPerMinute),
                    BaseUnit::Pascal => (rng.gen_range(980.0..1040.0), Unit::Hectopascal),
                    BaseUnit::Milliliter => (rng.gen_range(0.1..3.0), Unit::Liter),
                };
                Value::Measure((amount * 10.0).round() / 10.0, unit)
            }
            Type::Date => Value::Date(DateValue::Absolute(rng.gen_range(0..90i64) * 86_400_000)),
            Type::Time => Value::Time(rng.gen_range(0..24), rng.gen_range(0..60)),
            Type::Location => Value::Location(LocationValue::Named(
                self.datasets
                    .sample_for_param(&Type::Location, &param.name, rng),
            )),
            Type::Currency => Value::Currency(
                (rng.gen_range(100..100_000) as f64) / 100.0,
                "USD".to_owned(),
            ),
            Type::PathName | Type::Url | Type::Picture | Type::EmailAddress | Type::PhoneNumber => {
                Value::String(self.datasets.sample_for_param(&param.ty, &param.name, rng))
            }
            Type::Entity(kind) => {
                let text = self.datasets.sample_for_param(&param.ty, &param.name, rng);
                Value::Entity {
                    value: text.clone(),
                    kind: kind.clone(),
                    display: Some(text),
                }
            }
            Type::Array(inner) => {
                let count = rng.gen_range(1..4);
                let inner_param = ParamDef::new(
                    param.name.clone(),
                    (**inner).clone(),
                    thingtalk::class::ParamDirection::Out,
                );
                Value::Array(
                    (0..count)
                        .map(|_| self.generate_value(&inner_param, inputs, rng))
                        .collect(),
                )
            }
            Type::Any => Value::Number(rng.gen_range(0..100) as f64),
        }
    }
}

impl DeviceDelegate for SimulatedDevices {
    fn invoke_query(
        &mut self,
        function: &FunctionRef,
        params: &ResultRow,
        ctx: &ExecContext,
    ) -> Result<Vec<ResultRow>> {
        let def = self.function(function)?.clone();
        if !def.kind.is_query() {
            return Err(Error::execution(format!(
                "{function} is an action, not a query"
            )));
        }
        let epoch = ctx.tick / CHANGE_PERIOD;
        if def.kind.is_list() {
            // A stable base of rows, plus one extra row per epoch so
            // monitors see new results over time.
            let base_rows = 3;
            let total = base_rows + epoch as usize;
            Ok((0..total)
                .map(|row| {
                    // Rows are keyed by index with epoch 0 so that old rows
                    // are identical across polls; only the newest row uses
                    // the current epoch.
                    let row_epoch = if row < base_rows { 0 } else { row as u64 };
                    self.generate_row(&def, function, params, row, row_epoch)
                })
                .collect())
        } else if def.kind.is_monitorable() {
            // A single result that changes every CHANGE_PERIOD ticks.
            Ok(vec![self.generate_row(&def, function, params, 0, epoch)])
        } else {
            // Non-monitorable single results (random cat pictures) change on
            // every invocation.
            Ok(vec![self.generate_row(&def, function, params, 0, ctx.tick)])
        }
    }

    fn invoke_action(
        &mut self,
        function: &FunctionRef,
        params: &ResultRow,
        _ctx: &ExecContext,
    ) -> Result<()> {
        let def = self.function(function)?;
        if !def.kind.is_action() {
            return Err(Error::execution(format!(
                "{function} is a query, not an action"
            )));
        }
        for required in def.required_params() {
            if !params.contains_key(&required.name) {
                return Err(Error::execution(format!(
                    "action {function} is missing required parameter `{}`",
                    required.name
                )));
            }
        }
        self.performed_actions
            .push((function.clone(), params.clone()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thingtalk::runtime::{ClockConfig, ExecutionEngine};
    use thingtalk::syntax::parse_program;
    use thingtalk::typecheck::typecheck;

    fn engine(seed: u64) -> ExecutionEngine<SimulatedDevices> {
        ExecutionEngine::with_clock(
            SimulatedDevices::builtin(seed),
            ClockConfig {
                tick_ms: 60_000,
                start_ms: 0,
            },
        )
    }

    #[test]
    fn every_builtin_query_can_be_simulated() {
        let library = Thingpedia::builtin();
        let mut devices = SimulatedDevices::new(library.clone(), 42);
        let ctx = ExecContext { now_ms: 0, tick: 0 };
        for class in library.classes() {
            for function in class.queries() {
                let fref = FunctionRef::new(class.name.clone(), function.name.clone());
                // Provide required inputs.
                let mut params = ResultRow::new();
                for p in function.required_params() {
                    params.insert(p.name.clone(), Value::string("test value"));
                }
                let rows = devices
                    .invoke_query(&fref, &params, &ctx)
                    .unwrap_or_else(|e| panic!("query {fref} failed: {e}"));
                assert!(!rows.is_empty(), "query {fref} returned no rows");
                for p in function.output_params() {
                    assert!(
                        rows[0].contains_key(&p.name),
                        "query {fref} did not produce output parameter {}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let fref = FunctionRef::new("com.nytimes", "get_front_page");
        let ctx = ExecContext { now_ms: 0, tick: 0 };
        let mut a = SimulatedDevices::builtin(7);
        let mut b = SimulatedDevices::builtin(7);
        let mut c = SimulatedDevices::builtin(8);
        let rows_a = a.invoke_query(&fref, &ResultRow::new(), &ctx).unwrap();
        let rows_b = b.invoke_query(&fref, &ResultRow::new(), &ctx).unwrap();
        let rows_c = c.invoke_query(&fref, &ResultRow::new(), &ctx).unwrap();
        assert_eq!(rows_a, rows_b);
        assert_ne!(rows_a, rows_c);
    }

    #[test]
    fn fig1_program_executes_end_to_end() {
        let library = Thingpedia::builtin();
        let program = parse_program(
            "now => @com.thecatapi.get() => @com.facebook.post_picture(picture_url = picture_url, caption = \"funny cat\")",
        )
        .unwrap();
        typecheck(&library, &program).unwrap();
        let mut engine = engine(1);
        let result = engine.execute_once(&program).unwrap();
        assert_eq!(result.actions.len(), 1);
        assert_eq!(result.actions[0].function.class, "com.facebook");
        assert!(result.actions[0].params.contains_key("picture_url"));
    }

    #[test]
    fn monitors_over_simulated_data_eventually_trigger() {
        let program = parse_program("monitor (@com.nytimes.get_front_page()) => notify").unwrap();
        let mut engine = engine(3);
        let result = engine.run_for(&program, 12).unwrap();
        assert!(
            result.notifications.len() >= 2,
            "expected several monitor triggers, got {}",
            result.notifications.len()
        );
    }

    #[test]
    fn aggregation_over_dropbox_files() {
        let program =
            parse_program("now => agg sum file_size of (@com.dropbox.list_folder()) => notify")
                .unwrap();
        let mut engine = engine(4);
        let result = engine.execute_once(&program).unwrap();
        assert_eq!(result.notifications.len(), 1);
        assert!(result.notifications[0]
            .get("file_size")
            .and_then(|v| v.measure_in_base())
            .is_some());
    }

    #[test]
    fn actions_require_their_parameters() {
        let mut devices = SimulatedDevices::builtin(5);
        let ctx = ExecContext { now_ms: 0, tick: 0 };
        let err = devices
            .invoke_action(
                &FunctionRef::new("com.twitter", "post"),
                &ResultRow::new(),
                &ctx,
            )
            .unwrap_err();
        assert!(err.to_string().contains("missing required parameter"));
        let mut params = ResultRow::new();
        params.insert("status".to_owned(), Value::string("hello"));
        devices
            .invoke_action(&FunctionRef::new("com.twitter", "post"), &params, &ctx)
            .unwrap();
        assert_eq!(devices.performed_actions().len(), 1);
    }

    #[test]
    fn unknown_functions_are_rejected() {
        let mut devices = SimulatedDevices::builtin(6);
        let ctx = ExecContext { now_ms: 0, tick: 0 };
        assert!(devices
            .invoke_query(
                &FunctionRef::new("com.nope", "nothing"),
                &ResultRow::new(),
                &ctx
            )
            .is_err());
    }
}
