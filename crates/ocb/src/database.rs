//! OCB object base generation: instances and the inter-object reference
//! graph.
//!
//! Objects are identified by dense **logical OIDs** (`0..NO`). Each object
//! belongs to a class and carries one object reference per class-level
//! reference of its class; reference `j` of object `o` has the type and
//! target class of `schema.class(o.class).refs[j]`.
//!
//! Reference targets honour `OLOCREF` (object locality of reference): the
//! target is picked inside a window around the *proportional rank* of the
//! source object within the target class. This gives the reference graph
//! the locality real object bases exhibit — and gives clustering
//! algorithms something to discover.

use crate::params::{DatabaseParams, Selection};
use crate::schema::{ClassId, RefType, Schema};
use desp::{RandomStream, Zipf};

/// Logical object identifier (dense, `0..NO`).
pub type Oid = u32;

/// One object of the base.
#[derive(Clone, Debug)]
pub struct Object {
    /// The class this object instantiates.
    pub class: ClassId,
    /// Object size in bytes (the class's instance size).
    pub size: u32,
    /// Reference targets, aligned with the class's [`crate::schema::ClassRef`]s.
    pub refs: Box<[Oid]>,
}

/// A fully generated OCB object base: schema + instances + references.
#[derive(Clone, Debug)]
pub struct ObjectBase {
    schema: Schema,
    objects: Vec<Object>,
    by_class: Vec<Vec<Oid>>,
}

impl ObjectBase {
    /// Generates an object base from `params`, deterministically from
    /// `seed`.
    pub fn generate(params: &DatabaseParams, seed: u64) -> Self {
        params.validate().expect("invalid database parameters");
        let mut stream = RandomStream::new(seed);
        let schema = Schema::generate(params, &mut stream);
        let nc = params.classes;
        let no = params.objects;

        // ----- assign instances to classes ------------------------------
        let class_zipf = match params.instance_dist {
            Selection::Uniform => None,
            Selection::Zipf(theta) => Some(Zipf::new(nc, theta)),
            // validate() rejects this above.
            Selection::HotSet { .. } => unreachable!("HotSet is root-only"),
        };
        let mut class_of: Vec<ClassId> = Vec::with_capacity(no);
        // Guarantee every class at least one instance (the workload may
        // target any class), then distribute the rest per the distribution.
        for c in 0..nc {
            class_of.push(c as ClassId);
        }
        for _ in nc..no {
            let c = match &class_zipf {
                None => stream.index(nc),
                Some(z) => z.sample(&mut stream),
            };
            class_of.push(c as ClassId);
        }
        // Shuffle so OIDs are not correlated with class (placement policies
        // decide physical order, not generation order).
        stream.shuffle(&mut class_of);

        let mut by_class: Vec<Vec<Oid>> = vec![Vec::new(); nc];
        for (oid, &c) in class_of.iter().enumerate() {
            by_class[c as usize].push(oid as Oid);
        }

        // ----- generate objects and references --------------------------
        let window = params.object_locality.max(1);
        let ref_zipf = match params.ref_dist {
            Selection::Uniform => None,
            Selection::Zipf(theta) => Some(Zipf::new(2 * window + 1, theta)),
            // validate() rejects this above.
            Selection::HotSet { .. } => unreachable!("HotSet is root-only"),
        };
        // Rank of each object within its class (for proportional mapping).
        let mut rank_in_class: Vec<u32> = vec![0; no];
        for list in &by_class {
            for (rank, &oid) in list.iter().enumerate() {
                rank_in_class[oid as usize] = rank as u32;
            }
        }

        let mut objects = Vec::with_capacity(no);
        for oid in 0..no {
            let class_id = class_of[oid];
            let class = schema.class(class_id);
            let mut refs = Vec::with_capacity(class.refs.len());
            for cref in &class.refs {
                let targets = &by_class[cref.target as usize];
                let target = pick_target(
                    oid as Oid,
                    rank_in_class[oid] as usize,
                    by_class[class_id as usize].len(),
                    targets,
                    window,
                    ref_zipf.as_ref(),
                    &mut stream,
                );
                refs.push(target);
            }
            objects.push(Object {
                class: class_id,
                size: class.instance_size,
                refs: refs.into_boxed_slice(),
            });
        }

        ObjectBase {
            schema,
            objects,
            by_class,
        }
    }

    /// The schema the base instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the base holds no objects (never after generation).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Access an object.
    ///
    /// # Panics
    /// Panics if `oid` is out of range.
    pub fn object(&self, oid: Oid) -> &Object {
        &self.objects[oid as usize]
    }

    /// Instances of a class, in generation rank order.
    pub fn class_instances(&self, class: ClassId) -> &[Oid] {
        &self.by_class[class as usize]
    }

    /// Iterates `(oid, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Object)> {
        self.objects.iter().enumerate().map(|(i, o)| (i as Oid, o))
    }

    /// References of `oid` restricted to one reference type.
    pub fn refs_of_type(&self, oid: Oid, rtype: RefType) -> impl Iterator<Item = Oid> + '_ {
        let object = self.object(oid);
        let class = self.schema.class(object.class);
        class
            .refs
            .iter()
            .zip(object.refs.iter())
            .filter(move |(cref, _)| cref.rtype == rtype)
            .map(|(_, &target)| target)
    }
}

/// Picks a reference target inside the locality window, avoiding a
/// self-loop when possible.
fn pick_target(
    source: Oid,
    source_rank: usize,
    source_class_len: usize,
    targets: &[Oid],
    window: usize,
    ref_zipf: Option<&Zipf>,
    stream: &mut RandomStream,
) -> Oid {
    let n = targets.len();
    debug_assert!(n > 0, "every class has at least one instance");
    if n == 1 {
        return targets[0];
    }
    // Proportional rank of the source inside the target class.
    let center = source_rank * n / source_class_len.max(1);
    let offset = match ref_zipf {
        None => stream.int_range(0, 2 * window) as isize - window as isize,
        Some(z) => z.sample(stream) as isize - window as isize,
    };
    let mut idx = (center as isize + offset).rem_euclid(n as isize) as usize;
    if targets[idx] == source {
        idx = (idx + 1) % n;
    }
    targets[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_base(seed: u64) -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), seed)
    }

    #[test]
    fn base_has_requested_object_count() {
        let base = small_base(1);
        assert_eq!(base.len(), 500);
        assert!(!base.is_empty());
    }

    #[test]
    fn every_class_is_instantiated() {
        let base = small_base(2);
        for c in 0..base.schema().len() {
            assert!(
                !base.class_instances(c as ClassId).is_empty(),
                "class {c} has no instances"
            );
        }
    }

    #[test]
    fn class_instance_lists_partition_oids() {
        let base = small_base(3);
        let mut seen = vec![false; base.len()];
        for c in 0..base.schema().len() {
            for &oid in base.class_instances(c as ClassId) {
                assert!(!seen[oid as usize], "oid {oid} in two classes");
                seen[oid as usize] = true;
                assert_eq!(base.object(oid).class, c as ClassId);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn refs_align_with_class_refs() {
        let base = small_base(4);
        for (oid, object) in base.iter() {
            let class = base.schema().class(object.class);
            assert_eq!(object.refs.len(), class.refs.len());
            for (cref, &target) in class.refs.iter().zip(object.refs.iter()) {
                assert!((target as usize) < base.len());
                assert_eq!(
                    base.object(target).class,
                    cref.target,
                    "oid {oid}: reference target class mismatch"
                );
            }
        }
    }

    #[test]
    fn no_trivial_self_loops_when_avoidable() {
        let base = small_base(5);
        let mut self_loops = 0usize;
        let mut total = 0usize;
        for (oid, object) in base.iter() {
            for &target in object.refs.iter() {
                total += 1;
                if target == oid {
                    self_loops += 1;
                }
            }
        }
        // Self loops only possible for single-instance classes.
        assert!(
            (self_loops as f64) < 0.01 * total as f64,
            "{self_loops}/{total} self loops"
        );
    }

    #[test]
    fn mid_sized_base_is_about_20_mb() {
        let base = ObjectBase::generate(&DatabaseParams::default(), 99);
        let bytes: u64 = base.iter().map(|(_, o)| o.size as u64).sum();
        let mb = bytes as f64 / (1024.0 * 1024.0);
        assert!(
            (14.0..26.0).contains(&mb),
            "mid-sized base should be ~20 MB, got {mb:.1}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_base(7);
        let b = small_base(7);
        for ((_, oa), (_, ob)) in a.iter().zip(b.iter()) {
            assert_eq!(oa.class, ob.class);
            assert_eq!(oa.refs, ob.refs);
        }
        let c = small_base(8);
        let differs = a
            .iter()
            .zip(c.iter())
            .any(|((_, oa), (_, oc))| oa.class != oc.class || oa.refs != oc.refs);
        assert!(differs, "different seeds should give different bases");
    }

    #[test]
    fn refs_of_type_filters_correctly() {
        let base = small_base(9);
        for (oid, object) in base.iter().take(50) {
            let class = base.schema().class(object.class);
            for rtype in 0..DatabaseParams::small().ref_types as RefType {
                let expected: Vec<Oid> = class
                    .refs
                    .iter()
                    .zip(object.refs.iter())
                    .filter(|(cref, _)| cref.rtype == rtype)
                    .map(|(_, &t)| t)
                    .collect();
                let got: Vec<Oid> = base.refs_of_type(oid, rtype).collect();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn zipf_instance_dist_skews_class_sizes() {
        let params = DatabaseParams {
            instance_dist: Selection::Zipf(1.0),
            ..DatabaseParams::small()
        };
        let base = ObjectBase::generate(&params, 11);
        let sizes: Vec<usize> = (0..params.classes)
            .map(|c| base.class_instances(c as ClassId).len())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max > 3 * min, "Zipf should skew instance counts: {sizes:?}");
    }
}
