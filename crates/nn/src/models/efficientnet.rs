//! EfficientNetB0 (Tan & Le, ICML 2019) for INT8 inference.

use crate::graph::{GraphBuilder, Model, TensorId};
use crate::op::{ActivationKind, OpKind};
use crate::tensor::TensorShape;
use crate::NnError;

fn conv(out: u32, k: u32, s: u32, p: u32, groups: u32) -> OpKind {
    OpKind::Conv2d { out_channels: out, kernel: (k, k), stride: (s, s), padding: (p, p), groups }
}

/// Squeeze-and-excitation gate: global average pooling, a reduction 1×1
/// convolution, an expansion 1×1 convolution with a sigmoid, and a
/// broadcast multiplication back onto the feature map.
fn squeeze_excite(
    b: &mut GraphBuilder,
    name: &str,
    input: TensorId,
    reduced: u32,
) -> Result<TensorId, NnError> {
    let channels = b.shape(input).c;
    let squeezed = b.node(&format!("{name}.se_gap"), OpKind::GlobalAvgPool, &[input])?;
    let reduce =
        b.node(&format!("{name}.se_reduce"), conv(reduced.max(1), 1, 1, 0, 1), &[squeezed])?;
    let act = b.node(
        &format!("{name}.se_act"),
        OpKind::Activation(ActivationKind::HardSwish),
        &[reduce],
    )?;
    let expand = b.node(&format!("{name}.se_expand"), conv(channels, 1, 1, 0, 1), &[act])?;
    let gate = b.node(
        &format!("{name}.se_sigmoid"),
        OpKind::Activation(ActivationKind::Sigmoid),
        &[expand],
    )?;
    b.node(&format!("{name}.se_mul"), OpKind::Mul, &[input, gate])
}

/// One MBConv block: 1×1 expansion, k×k depth-wise convolution,
/// squeeze-and-excitation, 1×1 linear projection, optional residual.
#[allow(clippy::too_many_arguments)]
fn mbconv(
    b: &mut GraphBuilder,
    name: &str,
    input: TensorId,
    expansion: u32,
    out_channels: u32,
    kernel: u32,
    stride: u32,
) -> Result<TensorId, NnError> {
    let in_channels = b.shape(input).c;
    let hidden = in_channels * expansion;
    let mut x = input;
    if expansion != 1 {
        x = b.node(&format!("{name}.expand"), conv(hidden, 1, 1, 0, 1), &[x])?;
        x = b.node(
            &format!("{name}.expand_act"),
            OpKind::Activation(ActivationKind::HardSwish),
            &[x],
        )?;
    }
    let padding = kernel / 2;
    x = b.node(&format!("{name}.dwconv"), conv(hidden, kernel, stride, padding, hidden), &[x])?;
    x = b.node(&format!("{name}.dw_act"), OpKind::Activation(ActivationKind::HardSwish), &[x])?;
    x = squeeze_excite(b, name, x, in_channels / 4)?;
    x = b.node(&format!("{name}.project"), conv(out_channels, 1, 1, 0, 1), &[x])?;
    if stride == 1 && in_channels == out_channels {
        x = b.node(&format!("{name}.add"), OpKind::Add, &[x, input])?;
    }
    Ok(x)
}

/// Builds EfficientNetB0 at the given square input resolution.
///
/// # Panics
///
/// If the resolution is too small for the network; [`by_name`](super::by_name)
/// reports that as an error instead.
pub fn efficientnet_b0(resolution: u32) -> Model {
    try_efficientnet_b0(resolution).expect("valid efficientnetb0 geometry")
}

/// [`efficientnet_b0`], failing on resolutions the network cannot downsample.
pub(crate) fn try_efficientnet_b0(resolution: u32) -> Result<Model, NnError> {
    let mut b = GraphBuilder::new();
    let input = b.input("image", TensorShape::feature_map(3, resolution, resolution));

    let mut x = b.node("stem", conv(32, 3, 2, 1, 1), &[input])?;
    x = b.node("stem_act", OpKind::Activation(ActivationKind::HardSwish), &[x])?;

    // (expansion, out_channels, repeats, first stride, kernel) — B0 config.
    let blocks: [(u32, u32, u32, u32, u32); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    let mut index = 0;
    for (expansion, out_channels, repeats, first_stride, kernel) in blocks {
        for repeat in 0..repeats {
            let stride = if repeat == 0 { first_stride } else { 1 };
            x = mbconv(
                &mut b,
                &format!("mbconv{index}"),
                x,
                expansion,
                out_channels,
                kernel,
                stride,
            )?;
            index += 1;
        }
    }

    x = b.node("head", conv(1280, 1, 1, 0, 1), &[x])?;
    x = b.node("head_act", OpKind::Activation(ActivationKind::HardSwish), &[x])?;
    let pooled = b.node("gap", OpKind::GlobalAvgPool, &[x])?;
    let logits = b.node("fc", OpKind::Linear { out_features: 1000 }, &[pooled])?;

    let graph = b.finish(&[logits])?;
    Ok(Model::new("efficientnetb0", graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficientnet_b0_has_sixteen_mbconv_blocks() {
        let model = efficientnet_b0(224);
        let dwconvs = model
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv2d { groups, .. } if groups > 1))
            .count();
        assert_eq!(dwconvs, 16);
    }

    #[test]
    fn squeeze_excitation_present_in_every_block() {
        let model = efficientnet_b0(224);
        let se_muls = model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Mul)).count();
        assert_eq!(se_muls, 16);
        let sigmoids = model
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Activation(ActivationKind::Sigmoid)))
            .count();
        assert_eq!(sigmoids, 16);
    }

    #[test]
    fn branching_graph_still_validates_and_orders() {
        let model = efficientnet_b0(64);
        assert!(model.graph.validate().is_ok());
        assert_eq!(model.graph.topological_order().len(), model.graph.len());
    }
}
