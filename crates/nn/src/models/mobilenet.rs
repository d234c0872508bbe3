//! MobileNetV2 (Sandler et al., CVPR 2018) for INT8 inference.

use crate::graph::{GraphBuilder, Model, TensorId};
use crate::op::{ActivationKind, OpKind};
use crate::tensor::TensorShape;
use crate::NnError;

fn conv(out: u32, k: u32, s: u32, p: u32, groups: u32) -> OpKind {
    OpKind::Conv2d { out_channels: out, kernel: (k, k), stride: (s, s), padding: (p, p), groups }
}

/// One inverted-residual bottleneck block: 1×1 expansion, 3×3 depth-wise
/// convolution, 1×1 linear projection and an optional residual add.
fn inverted_residual(
    b: &mut GraphBuilder,
    name: &str,
    input: TensorId,
    expansion: u32,
    out_channels: u32,
    stride: u32,
) -> Result<TensorId, NnError> {
    let in_channels = b.shape(input).c;
    let hidden = in_channels * expansion;
    let mut x = input;
    if expansion != 1 {
        x = b.node(&format!("{name}.expand"), conv(hidden, 1, 1, 0, 1), &[x])?;
        x = b.node(
            &format!("{name}.expand_relu"),
            OpKind::Activation(ActivationKind::Relu6),
            &[x],
        )?;
    }
    x = b.node(&format!("{name}.dwconv"), conv(hidden, 3, stride, 1, hidden), &[x])?;
    x = b.node(&format!("{name}.dw_relu"), OpKind::Activation(ActivationKind::Relu6), &[x])?;
    x = b.node(&format!("{name}.project"), conv(out_channels, 1, 1, 0, 1), &[x])?;
    if stride == 1 && in_channels == out_channels {
        x = b.node(&format!("{name}.add"), OpKind::Add, &[x, input])?;
    }
    Ok(x)
}

/// Builds MobileNetV2 (width multiplier 1.0) at the given square input
/// resolution.
///
/// # Panics
///
/// If the resolution is too small for the network; [`by_name`](super::by_name)
/// reports that as an error instead.
pub fn mobilenet_v2(resolution: u32) -> Model {
    try_mobilenet_v2(resolution).expect("valid mobilenetv2 geometry")
}

/// [`mobilenet_v2`], failing on resolutions the network cannot downsample.
pub(crate) fn try_mobilenet_v2(resolution: u32) -> Result<Model, NnError> {
    let mut b = GraphBuilder::new();
    let input = b.input("image", TensorShape::feature_map(3, resolution, resolution));

    let mut x = b.node("stem", conv(32, 3, 2, 1, 1), &[input])?;
    x = b.node("stem_relu", OpKind::Activation(ActivationKind::Relu6), &[x])?;

    // (expansion, out_channels, repeats, first stride) — Table 2 of the paper.
    let blocks: [(u32, u32, u32, u32); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut block_index = 0;
    for (expansion, out_channels, repeats, first_stride) in blocks {
        for repeat in 0..repeats {
            let stride = if repeat == 0 { first_stride } else { 1 };
            x = inverted_residual(
                &mut b,
                &format!("block{block_index}"),
                x,
                expansion,
                out_channels,
                stride,
            )?;
            block_index += 1;
        }
    }

    x = b.node("head", conv(1280, 1, 1, 0, 1), &[x])?;
    x = b.node("head_relu", OpKind::Activation(ActivationKind::Relu6), &[x])?;
    let pooled = b.node("gap", OpKind::GlobalAvgPool, &[x])?;
    let logits = b.node("fc", OpKind::Linear { out_features: 1000 }, &[pooled])?;

    let graph = b.finish(&[logits])?;
    Ok(Model::new("mobilenetv2", graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobilenet_v2_has_seventeen_bottlenecks() {
        let model = mobilenet_v2(224);
        let dwconvs = model
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv2d { groups, .. } if groups > 1))
            .count();
        assert_eq!(dwconvs, 17);
    }

    #[test]
    fn residual_adds_only_on_stride_one_same_width_blocks() {
        let model = mobilenet_v2(224);
        let adds = model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Add)).count();
        // 1+2+3+2+2 blocks with identity = 10 residual adds.
        assert_eq!(adds, 10);
    }

    #[test]
    fn weight_footprint_is_small() {
        let stats = mobilenet_v2(224).graph.stats();
        assert!(stats.total_weight_bytes < 5_000_000);
        assert!(stats.max_weight_bytes < 2_000_000);
    }
}
