//! ResNet18 (He et al., CVPR 2016) for INT8 inference.

use crate::graph::{GraphBuilder, Model, TensorId};
use crate::op::{ActivationKind, OpKind};
use crate::tensor::TensorShape;
use crate::NnError;

fn conv(out: u32, k: u32, s: u32, p: u32) -> OpKind {
    OpKind::Conv2d { out_channels: out, kernel: (k, k), stride: (s, s), padding: (p, p), groups: 1 }
}

/// One basic residual block: two 3×3 convolutions plus an identity or
/// 1×1-projection shortcut.
fn basic_block(
    b: &mut GraphBuilder,
    name: &str,
    input: TensorId,
    channels: u32,
    stride: u32,
    project: bool,
) -> Result<TensorId, NnError> {
    let c1 = b.node(&format!("{name}.conv1"), conv(channels, 3, stride, 1), &[input])?;
    let r1 = b.node(&format!("{name}.relu1"), OpKind::Activation(ActivationKind::Relu), &[c1])?;
    let c2 = b.node(&format!("{name}.conv2"), conv(channels, 3, 1, 1), &[r1])?;
    let shortcut = if project {
        b.node(&format!("{name}.downsample"), conv(channels, 1, stride, 0), &[input])?
    } else {
        input
    };
    let sum = b.node(&format!("{name}.add"), OpKind::Add, &[c2, shortcut])?;
    b.node(&format!("{name}.relu2"), OpKind::Activation(ActivationKind::Relu), &[sum])
}

/// Builds ResNet18 at the given square input resolution (224 for the
/// ImageNet geometry).
///
/// # Panics
///
/// If the resolution is too small for the network; [`by_name`](super::by_name)
/// reports that as an error instead.
pub fn resnet18(resolution: u32) -> Model {
    try_resnet18(resolution).expect("valid resnet18 geometry")
}

/// [`resnet18`], failing on resolutions the network cannot downsample.
pub(crate) fn try_resnet18(resolution: u32) -> Result<Model, NnError> {
    let mut b = GraphBuilder::new();
    let input = b.input("image", TensorShape::feature_map(3, resolution, resolution));

    let stem = b.node("conv1", conv(64, 7, 2, 3), &[input])?;
    let stem = b.node("relu1", OpKind::Activation(ActivationKind::Relu), &[stem])?;
    let mut x = b.node(
        "maxpool",
        OpKind::MaxPool { kernel: (3, 3), stride: (2, 2), padding: (1, 1) },
        &[stem],
    )?;

    let stages: [(u32, u32, &str); 4] =
        [(64, 1, "layer1"), (128, 2, "layer2"), (256, 2, "layer3"), (512, 2, "layer4")];
    for (channels, first_stride, name) in stages {
        let project = first_stride != 1 || b.shape(x).c != channels;
        x = basic_block(&mut b, &format!("{name}.0"), x, channels, first_stride, project)?;
        x = basic_block(&mut b, &format!("{name}.1"), x, channels, 1, false)?;
    }

    let pooled = b.node("gap", OpKind::GlobalAvgPool, &[x])?;
    let logits = b.node("fc", OpKind::Linear { out_features: 1000 }, &[pooled])?;
    let graph = b.finish(&[logits])?;
    Ok(Model::new("resnet18", graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_has_expected_structure() {
        let model = resnet18(224);
        let convs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Conv2d { .. })).count();
        // 1 stem + 16 block convs + 3 downsample projections.
        assert_eq!(convs, 20);
        let fcs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Linear { .. })).count();
        assert_eq!(fcs, 1);
        assert_eq!(
            model.graph.output_shape(model.graph.nodes().last().unwrap().id),
            TensorShape::vector(1000)
        );
    }

    #[test]
    fn residual_adds_receive_two_inputs() {
        let model = resnet18(64);
        for node in model.graph.nodes() {
            if matches!(node.op, OpKind::Add) {
                assert_eq!(node.inputs.len(), 2, "residual add {} needs two inputs", node.name);
            }
        }
    }

    #[test]
    fn works_at_small_resolutions() {
        let model = resnet18(32);
        assert!(model.graph.validate().is_ok());
        assert!(model.graph.stats().total_macs > 0);
    }
}
