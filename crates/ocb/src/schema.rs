//! OCB schema generation: the class graph.
//!
//! The OCB database is "generic": a schema of `NC` classes linked by typed
//! references. Reference type 0 plays the role of the inheritance /
//! derivation hierarchy (followed by hierarchy traversals); the remaining
//! types model aggregation, association, and other relationships.

use crate::params::DatabaseParams;
use desp::RandomStream;

/// Bytes of fixed per-object header a storage engine needs (OID + reference
/// count). Instance sizes are clamped so every object can physically hold
/// its serialised header and references.
pub const OBJECT_HEADER_BYTES: u32 = 16;

/// Serialised bytes per object reference (page id + slot id).
pub const BYTES_PER_REF: u32 = 8;

/// Identifier of a class in the schema (dense, `0..NC`).
pub type ClassId = u32;

/// Identifier of a reference type (`0..NREFT`; 0 = hierarchy).
pub type RefType = u8;

/// A class-level reference: every instance of the owning class carries one
/// object reference conforming to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassRef {
    /// The reference type (0 = hierarchy).
    pub rtype: RefType,
    /// The class the referenced objects belong to.
    pub target: ClassId,
}

/// A class of the generated schema.
#[derive(Clone, Debug)]
pub struct Class {
    /// The class identifier.
    pub id: ClassId,
    /// Size in bytes of each instance of this class.
    pub instance_size: u32,
    /// The class's typed references (between 1 and `MAXNREF`).
    pub refs: Vec<ClassRef>,
}

/// The class graph of an OCB object base.
#[derive(Clone, Debug)]
pub struct Schema {
    classes: Vec<Class>,
}

impl Schema {
    /// Generates a schema from the database parameters, consuming draws
    /// from `stream`.
    ///
    /// Reference targets honour `CLOCREF`: a class's references point to
    /// classes within a window of `±class_locality` around its own index
    /// (wrapping, so edge classes are not biased).
    pub fn generate(params: &DatabaseParams, stream: &mut RandomStream) -> Self {
        params.validate().expect("invalid database parameters");
        let nc = params.classes;
        let window = params.class_locality.min(nc.saturating_sub(1));
        let mut classes = Vec::with_capacity(nc);
        for id in 0..nc {
            let nrefs = stream.int_range(1, params.max_refs);
            // Clamp so the physical representation (header + references)
            // always fits inside the instance.
            let min_size = OBJECT_HEADER_BYTES + BYTES_PER_REF * nrefs as u32;
            let instance_size = (params.base_size
                * stream.int_range(1, params.size_factor as usize) as u32)
                .max(min_size);
            let mut refs = Vec::with_capacity(nrefs);
            for _ in 0..nrefs {
                let rtype = stream.index(params.ref_types) as RefType;
                let target = if window == 0 {
                    id
                } else {
                    // Offset in [-window, +window], wrapping around the
                    // schema (self-reference allowed at class level: object
                    // generation avoids self-loops at the object level).
                    let offset = stream.int_range(0, 2 * window) as isize - window as isize;
                    (id as isize + offset).rem_euclid(nc as isize) as usize
                };
                refs.push(ClassRef {
                    rtype,
                    target: target as ClassId,
                });
            }
            classes.push(Class {
                id: id as ClassId,
                instance_size,
                refs,
            });
        }
        Schema { classes }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the schema has no classes (never: generation requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Access a class.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate_default() -> Schema {
        let params = DatabaseParams::default();
        let mut stream = RandomStream::new(42);
        Schema::generate(&params, &mut stream)
    }

    #[test]
    fn schema_has_requested_classes() {
        let schema = generate_default();
        assert_eq!(schema.len(), 50);
    }

    #[test]
    fn every_class_has_refs_within_bounds() {
        let schema = generate_default();
        for class in &schema.classes {
            assert!(!class.refs.is_empty());
            assert!(class.refs.len() <= 10);
            for r in &class.refs {
                assert!((r.target as usize) < schema.len());
                assert!((r.rtype as usize) < DatabaseParams::default().ref_types);
            }
        }
    }

    #[test]
    fn instance_sizes_within_bounds_and_fit_references() {
        let params = DatabaseParams::default();
        let mut stream = RandomStream::new(7);
        let schema = Schema::generate(&params, &mut stream);
        for class in &schema.classes {
            assert!(class.instance_size >= params.base_size);
            assert!(
                class.instance_size
                    <= (params.base_size * params.size_factor)
                        .max(OBJECT_HEADER_BYTES + BYTES_PER_REF * class.refs.len() as u32)
            );
            // Physical representation always fits.
            assert!(
                class.instance_size
                    >= OBJECT_HEADER_BYTES + BYTES_PER_REF * class.refs.len() as u32
            );
        }
    }

    #[test]
    fn class_locality_is_honoured() {
        let params = DatabaseParams {
            classes: 100,
            class_locality: 5,
            ..DatabaseParams::default()
        };
        let mut stream = RandomStream::new(13);
        let schema = Schema::generate(&params, &mut stream);
        for class in &schema.classes {
            for r in &class.refs {
                // Circular distance between class and target ≤ window.
                let d = (class.id as isize - r.target as isize).rem_euclid(100);
                let circ = d.min(100 - d);
                assert!(
                    circ <= 5,
                    "class {} → {} distance {circ}",
                    class.id,
                    r.target
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let params = DatabaseParams::default();
        let a = Schema::generate(&params, &mut RandomStream::new(5));
        let b = Schema::generate(&params, &mut RandomStream::new(5));
        for (ca, cb) in a.classes.iter().zip(&b.classes) {
            assert_eq!(ca.instance_size, cb.instance_size);
            assert_eq!(ca.refs, cb.refs);
        }
    }

    #[test]
    fn single_class_schema_targets_itself() {
        let params = DatabaseParams {
            classes: 1,
            objects: 10,
            class_locality: 10,
            ..DatabaseParams::default()
        };
        let mut stream = RandomStream::new(3);
        let schema = Schema::generate(&params, &mut stream);
        for r in &schema.class(0).refs {
            assert_eq!(r.target, 0);
        }
    }
}
