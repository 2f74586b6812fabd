//! The benchmark instance, rebuilt from the manifest the `kagen` CLI
//! wrote — so the layer passes drive exactly the generator the measured
//! invocation ran, and byte-equality against its shards proves it.

use kagen_core::prelude::*;
use kagen_geometry::grid::levels_for_min_side;
use kagen_pipeline::Manifest;

/// One generated instance: the CLI manifest plus the parameters parsed
/// back out of its `params` string.
#[derive(Debug)]
pub struct Instance {
    pub manifest: Manifest,
    pub m: u64,
    pub radius: Option<f64>,
    pub rmat_levels: Option<u32>,
}

/// Value of `key=` in a manifest params string.
fn param<'a>(params: &'a str, key: &str) -> Option<&'a str> {
    params
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn parsed<T: std::str::FromStr>(params: &str, key: &str) -> Result<Option<T>, String> {
    param(params, key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad {key}= in params '{params}'"))
        })
        .transpose()
}

impl Instance {
    pub fn from_manifest(manifest: Manifest) -> Result<Instance, String> {
        let p = &manifest.params;
        let m = parsed(p, "m")?.unwrap_or(0);
        let radius = parsed(p, "r")?;
        let rmat_levels = parsed(p, "levels")?;
        if manifest.model == "rmat" && param(p, "kernel") != Some("linear") {
            return Err(format!("rmat instance without kernel=linear: '{p}'"));
        }
        Ok(Instance {
            manifest,
            m,
            radius,
            rmat_levels,
        })
    }

    pub fn n(&self) -> u64 {
        self.manifest.n
    }

    pub fn chunks(&self) -> usize {
        self.manifest.chunks as usize
    }

    /// The streaming generator the CLI built for this manifest.
    pub fn generator(&self) -> Result<Box<dyn StreamingGenerator>, String> {
        let (n, m, seed, chunks) = (self.n(), self.m, self.manifest.seed, self.chunks());
        Ok(match self.manifest.model.as_str() {
            "rmat" => {
                let scale = n.next_power_of_two().ilog2().max(1);
                let levels = self.rmat_levels.ok_or("rmat params without levels=")?;
                Box::new(
                    Rmat::new(scale, m)
                        .with_seed(seed)
                        .with_chunks(chunks)
                        .with_kernel(RmatKernel::Linear { levels }),
                )
            }
            "gnm_undirected" => {
                Box::new(GnmUndirected::new(n, m).with_seed(seed).with_chunks(chunks))
            }
            "rgg2d" => {
                let r = self.radius.ok_or("rgg2d params without r=")?;
                Box::new(Rgg2d::new(n, r).with_seed(seed).with_chunks(chunks))
            }
            "rdg2d" => Box::new(Rdg2d::new(n).with_seed(seed).with_chunks(chunks)),
            other => return Err(format!("model '{other}' is not a benchmark workload")),
        })
    }

    /// Depth of the count tree whose descents `geo.descent_us` times:
    /// the instance's own tree for the spatial models, and for the
    /// others the tree a threshold-radius 2-D RGG over the same `n`
    /// would build (so the metric stays defined; it moves nothing there).
    pub fn tree_depth(&self) -> u32 {
        let n = self.n();
        match self.manifest.model.as_str() {
            // Rdg2d's cell side ≈ (3/n)^{1/2}, as in `Rdg::instance`.
            "rdg2d" => levels_for_min_side((3.0 / n as f64).sqrt(), 24),
            "rgg2d" => Rgg2d::new(n, self.radius.unwrap_or(0.0))
                .with_chunks(self.chunks())
                .instance_grid()
                .1
                .levels(),
            _ => Rgg2d::new(n, Rgg2d::threshold_radius(n, 1))
                .instance_grid()
                .1
                .levels(),
        }
    }

    /// Arguments of `kagen worker` for this instance, minus the PE range
    /// and rank the launcher appends.
    pub fn worker_args(&self, shard_dir: &str) -> Vec<String> {
        let mut args = vec![
            self.manifest.model.clone(),
            "-n".into(),
            self.n().to_string(),
            "-m".into(),
            self.m.to_string(),
        ];
        if let Some(levels) = self.rmat_levels {
            args.extend(["--rmat-kernel".into(), "linear".into()]);
            args.extend(["--rmat-levels".into(), levels.to_string()]);
        }
        if let Some(r) = self.radius {
            args.extend(["-r".into(), r.to_string()]);
        }
        args.extend(
            [
                "-s",
                &self.manifest.seed.to_string(),
                "-c",
                &self.chunks().to_string(),
                "-t",
                "1",
                "-f",
                "compressed",
                "--shard-dir",
                shard_dir,
                "-q",
            ]
            .map(String::from),
        );
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_parse_by_key() {
        let p = "scale=22 m=16777216 kernel=linear levels=8";
        assert_eq!(param(p, "m"), Some("16777216"));
        assert_eq!(param(p, "levels"), Some("8"));
        assert_eq!(param(p, "scale"), Some("22"));
        assert_eq!(param(p, "r"), None);
        assert_eq!(parsed::<f64>("n=4 r=0.25", "r").unwrap(), Some(0.25));
        assert!(parsed::<u64>("m=x", "m").is_err());
    }
}
