//! VGG19 (Simonyan & Zisserman, ICLR 2015) for INT8 inference.

use crate::graph::{GraphBuilder, Model};
use crate::op::{ActivationKind, OpKind};
use crate::tensor::TensorShape;
use crate::NnError;

fn conv3(out: u32) -> OpKind {
    OpKind::Conv2d { out_channels: out, kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups: 1 }
}

/// Builds VGG19 at the given square input resolution (224 for the ImageNet
/// geometry). The three fully connected layers use the standard
/// 4096/4096/1000 sizes when the final feature map is 7×7 (i.e. for
/// 224-pixel inputs) and scale with the flattened feature size otherwise.
///
/// # Panics
///
/// Below 32 px, where the five pooling stages run out of pixels;
/// [`by_name`](super::by_name) reports that as an error instead.
pub fn vgg19(resolution: u32) -> Model {
    try_vgg19(resolution).expect("valid vgg19 geometry")
}

/// [`vgg19`], failing on resolutions the network cannot downsample.
pub(crate) fn try_vgg19(resolution: u32) -> Result<Model, NnError> {
    let mut b = GraphBuilder::new();
    let mut x = b.input("image", TensorShape::feature_map(3, resolution, resolution));

    // (channel count, convolutions per stage) for the 19-layer configuration E.
    let stages: [(u32, u32); 5] = [(64, 2), (128, 2), (256, 4), (512, 4), (512, 4)];
    for (stage_idx, (channels, convs)) in stages.into_iter().enumerate() {
        for conv_idx in 0..convs {
            x =
                b.node(&format!("conv{}_{}", stage_idx + 1, conv_idx + 1), conv3(channels), &[x])?;
            x = b.node(
                &format!("relu{}_{}", stage_idx + 1, conv_idx + 1),
                OpKind::Activation(ActivationKind::Relu),
                &[x],
            )?;
        }
        x = b.node(
            &format!("pool{}", stage_idx + 1),
            OpKind::MaxPool { kernel: (2, 2), stride: (2, 2), padding: (0, 0) },
            &[x],
        )?;
    }

    let flat = b.node("flatten", OpKind::Flatten, &[x])?;
    let fc1 = b.node("fc1", OpKind::Linear { out_features: 4096 }, &[flat])?;
    let relu_fc1 = b.node("relu_fc1", OpKind::Activation(ActivationKind::Relu), &[fc1])?;
    let fc2 = b.node("fc2", OpKind::Linear { out_features: 4096 }, &[relu_fc1])?;
    let relu_fc2 = b.node("relu_fc2", OpKind::Activation(ActivationKind::Relu), &[fc2])?;
    let logits = b.node("fc3", OpKind::Linear { out_features: 1000 }, &[relu_fc2])?;

    let graph = b.finish(&[logits])?;
    Ok(Model::new("vgg19", graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg19_has_sixteen_convs_and_three_fcs() {
        let model = vgg19(224);
        let convs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Conv2d { .. })).count();
        let fcs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, OpKind::Linear { .. })).count();
        assert_eq!(convs, 16);
        assert_eq!(fcs, 3);
    }

    #[test]
    fn fully_connected_layers_dominate_weights_at_full_resolution() {
        let model = vgg19(224);
        let stats = model.graph.stats();
        let fc_weights: u64 =
            stats.per_op.iter().filter(|o| o.name.starts_with("fc")).map(|o| o.weight_bytes).sum();
        assert!(fc_weights * 2 > stats.total_weight_bytes, "VGG19 FC layers hold most parameters");
    }

    #[test]
    fn scales_down_to_small_resolutions() {
        let model = vgg19(32);
        assert!(model.graph.validate().is_ok());
        // 32 / 2^5 = 1 pixel feature map at the end.
        let flatten = model.graph.nodes().iter().find(|n| n.name == "flatten").unwrap();
        assert_eq!(model.graph.output_shape(flatten.id), TensorShape::vector(512));
    }
}
