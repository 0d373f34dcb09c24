//! Property-based tests of the simulation kernel.

use desp::{
    ConfidenceInterval, Context, Engine, Model, RandomStream, Resource, SimTime, TimeWeighted,
    Welford, Zipf,
};
use proptest::prelude::*;

/// A model that schedules an arbitrary batch of events and records the
/// order they fire in.
struct Recorder {
    to_schedule: Vec<(u32, u32)>, // (delay in integer ms, id)
    fired: Vec<(f64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn init(&mut self, ctx: &mut Context<'_, u32>) {
        for &(delay, id) in &self.to_schedule {
            ctx.schedule(delay as f64, id);
        }
    }
    fn handle(&mut self, event: u32, ctx: &mut Context<'_, u32>) {
        self.fired.push((ctx.now().as_ms(), event));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn events_fire_in_nondecreasing_time_order(
        batch in prop::collection::vec((0u32..1000, 0u32..100), 1..100)
    ) {
        let n = batch.len();
        let mut engine = Engine::new(Recorder { to_schedule: batch, fired: vec![] });
        engine.run_to_completion();
        let fired = &engine.model().fired;
        prop_assert_eq!(fired.len(), n);
        for window in fired.windows(2) {
            prop_assert!(window[1].0 >= window[0].0, "clock went backwards");
        }
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order(
        ids in prop::collection::vec(0u32..1000, 2..50)
    ) {
        // All at the same instant: dispatch must equal scheduling order.
        let batch: Vec<(u32, u32)> = ids.iter().map(|&id| (5, id)).collect();
        let mut engine = Engine::new(Recorder { to_schedule: batch, fired: vec![] });
        engine.run_to_completion();
        let fired_ids: Vec<u32> = engine.model().fired.iter().map(|&(_, id)| id).collect();
        prop_assert_eq!(fired_ids, ids);
    }

    #[test]
    fn uniform01_stays_in_unit_interval(seed in any::<u64>()) {
        let mut stream = RandomStream::new(seed);
        for _ in 0..1000 {
            let u = stream.uniform01();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_never_exceeds_bound(seed in any::<u64>(), n in 1usize..10_000) {
        let mut stream = RandomStream::new(seed);
        for _ in 0..100 {
            prop_assert!(stream.index(n) < n);
        }
    }

    #[test]
    fn expo_is_nonnegative(seed in any::<u64>(), mean in 0.001f64..1e6) {
        let mut stream = RandomStream::new(seed);
        for _ in 0..100 {
            prop_assert!(stream.expo(mean) >= 0.0);
        }
    }

    /// The batched sampler is the scalar one, value for value, and
    /// leaves the stream at the same position; lengths cross batch
    /// boundaries and means span twelve decades.
    #[test]
    fn fill_expo_matches_expo_bit_for_bit(
        seed in any::<u64>(),
        decades in -6.0f64..6.0,
        len in 0usize..=2 * desp::random::EXPO_BATCH + 1,
    ) {
        let mean = 10f64.powf(decades);
        let mut batched = RandomStream::new(seed);
        let mut scalar = batched.clone();
        let mut out = vec![f64::NAN; len];
        batched.fill_expo(mean, &mut out);
        for (i, &value) in out.iter().enumerate() {
            let expect = scalar.expo(mean);
            prop_assert_eq!(value.to_bits(), expect.to_bits(), "value {} of {}", i, len);
        }
        prop_assert_eq!(batched.uniform01().to_bits(), scalar.uniform01().to_bits());
    }

    #[test]
    fn zipf_samples_in_range(seed in any::<u64>(), n in 1usize..5_000, theta in 0.0f64..3.0) {
        let zipf = Zipf::new(n, theta);
        let mut stream = RandomStream::new(seed);
        for _ in 0..100 {
            prop_assert!(zipf.sample(&mut stream) < n);
        }
    }

    #[test]
    fn shuffle_is_a_permutation(seed in any::<u64>(), n in 0usize..500) {
        let mut stream = RandomStream::new(seed);
        let mut values: Vec<usize> = (0..n).collect();
        stream.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn welford_matches_two_pass(samples in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut acc = Welford::default();
        for &s in &samples {
            acc.add(s);
        }
        let n = samples.len() as f64;
        let mean: f64 = samples.iter().sum::<f64>() / n;
        let var: f64 = samples.iter().map(|&s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((acc.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((acc.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
    }

    #[test]
    fn time_weighted_mean_stays_bounded_under_clamping(
        updates in prop::collection::vec((0u32..10_000, -100f64..100.0), 1..100)
    ) {
        // Deliberately unsorted timestamps: the clamp must keep the
        // time-weighted mean within the value range (a negative weight
        // would let it escape).
        let mut tw = TimeWeighted::default();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(t, v) in &updates {
            tw.update(t as f64, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mean = tw.mean(10_001.0);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9, "mean {mean} outside [{lo}, {hi}]");
    }

    #[test]
    fn confidence_interval_contains_its_own_mean(
        samples in prop::collection::vec(-1e3f64..1e3, 2..100),
        level in 0.5f64..0.999,
    ) {
        let ci = ConfidenceInterval::from_samples(&samples, level);
        prop_assert!(ci.half_width >= 0.0);
        // Higher confidence → wider interval.
        let wider = ConfidenceInterval::from_samples(&samples, (level + 1.0) / 2.0);
        prop_assert!(wider.half_width >= ci.half_width - 1e-12);
    }

    #[test]
    fn resource_conservation(
        capacity in 1usize..8,
        arrivals in prop::collection::vec(0u32..100, 1..40),
    ) {
        // Every requested job is eventually granted exactly once and the
        // resource ends idle, whatever the arrival pattern and capacity.
        #[derive(Clone, Copy)]
        enum Ev {
            Arrive,
            Granted,
            Done,
        }
        struct Conservation {
            resource: Resource<Ev>,
            granted: usize,
            arrivals: Vec<u32>,
        }
        impl Model for Conservation {
            type Event = Ev;
            fn init(&mut self, ctx: &mut Context<'_, Ev>) {
                for &t in &self.arrivals {
                    ctx.schedule(t as f64, Ev::Arrive);
                }
            }
            fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
                match ev {
                    Ev::Arrive => self.resource.request(Ev::Granted, ctx),
                    Ev::Granted => {
                        self.granted += 1;
                        ctx.schedule(1.5, Ev::Done);
                    }
                    Ev::Done => self.resource.release(ctx),
                }
            }
        }
        let n = arrivals.len();
        let mut engine = Engine::new(Conservation {
            resource: Resource::new("r", capacity),
            granted: 0,
            arrivals,
        });
        engine.run_to_completion();
        let model = engine.model();
        prop_assert_eq!(model.granted, n);
        prop_assert_eq!(model.resource.busy(), 0);
        prop_assert_eq!(model.resource.queue_len(), 0);
    }

    #[test]
    fn sim_time_ordering_is_consistent_with_f64(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let (ta, tb) = (SimTime::from_ms(a), SimTime::from_ms(b));
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta == tb, a == b);
    }
}
