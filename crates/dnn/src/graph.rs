//! Network graphs: a DAG of operators with two classifier heads.
//!
//! The evaluated controllers are dual-headed classifiers (Figure 8): a
//! shared ResNet backbone feeding an **angular** head (left / center /
//! right view angle relative to the trail) and a **lateral** head (left /
//! center / right offset). [`Network::forward`] produces both heads'
//! softmax outputs.

use crate::ops;
use crate::tensor::Tensor;

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// One operator node.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The network input placeholder.
    Input,
    /// 2-D convolution.
    Conv {
        /// Weights (O, I, K, K).
        weight: Tensor,
        /// Optional bias (O).
        bias: Option<Tensor>,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
    },
    /// Inference-form batch normalization.
    BatchNorm {
        /// Per-channel scale.
        scale: Tensor,
        /// Per-channel shift.
        shift: Tensor,
    },
    /// ReLU activation.
    Relu,
    /// Max pooling with a square window (stride = window).
    MaxPool {
        /// Window edge length.
        window: usize,
    },
    /// Global average pooling.
    GlobalAvgPool,
    /// Residual addition with another node's output.
    Add {
        /// The other operand.
        other: NodeId,
    },
    /// Fully-connected layer.
    Linear {
        /// Weights (O, I).
        weight: Tensor,
        /// Bias (O).
        bias: Tensor,
    },
    /// Softmax over a 1-D tensor.
    Softmax,
}

/// A node: an operator applied to the output of `input`.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// The producing node of the primary operand.
    pub input: NodeId,
}

/// A feed-forward DAG with two output heads.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    angular_head: NodeId,
    lateral_head: NodeId,
}

/// Incremental builder for a [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
}

impl NetworkBuilder {
    /// Starts a network; returns the builder and the input node id.
    pub fn new() -> (NetworkBuilder, NodeId) {
        let b = NetworkBuilder {
            nodes: vec![Node {
                op: Op::Input,
                input: 0,
            }],
        };
        (b, 0)
    }

    /// Appends a node consuming `input`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `input` (or an `Add`'s `other`) is not an earlier node.
    pub fn push(&mut self, op: Op, input: NodeId) -> NodeId {
        let id = self.nodes.len();
        assert!(input < id, "node input {input} must precede node {id}");
        if let Op::Add { other } = &op {
            assert!(*other < id, "add operand {other} must precede node {id}");
        }
        self.nodes.push(Node { op, input });
        id
    }

    /// Finalizes the network with the two head nodes.
    ///
    /// # Panics
    ///
    /// Panics if either head id is out of range.
    pub fn finish(self, name: &str, angular_head: NodeId, lateral_head: NodeId) -> Network {
        assert!(angular_head < self.nodes.len() && lateral_head < self.nodes.len());
        Network {
            name: name.to_string(),
            nodes: self.nodes,
            angular_head,
            lateral_head,
        }
    }
}

impl Network {
    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Conv { weight, bias, .. } => {
                    weight.len() + bias.as_ref().map_or(0, Tensor::len)
                }
                Op::BatchNorm { scale, shift } => scale.len() + shift.len(),
                Op::Linear { weight, bias } => weight.len() + bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Runs the backbone only, returning the globally-pooled feature
    /// vector (the input to both classifier heads).
    ///
    /// # Panics
    ///
    /// Panics if the network contains no [`Op::GlobalAvgPool`] node.
    pub fn forward_features(&self, input: &Tensor) -> Tensor {
        let gap = self
            .nodes
            .iter()
            .position(|n| matches!(n.op, Op::GlobalAvgPool))
            .expect("network has no GlobalAvgPool feature node");
        self.eval_nodes(input, gap)[gap]
            .clone()
            .expect("feature node evaluated")
    }

    /// Evaluates nodes `0..=last`, returning the outputs vector.
    fn eval_nodes(&self, input: &Tensor, last: usize) -> Vec<Option<Tensor>> {
        let mut outputs: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate().take(last + 1) {
            let value = match &node.op {
                Op::Input => input.clone(),
                op => {
                    let x = outputs[node.input]
                        .as_ref()
                        .expect("topological order violated");
                    match op {
                        Op::Input => unreachable!(),
                        Op::Conv {
                            weight,
                            bias,
                            stride,
                            pad,
                        } => ops::conv2d(x, weight, bias.as_ref(), *stride, *pad),
                        Op::BatchNorm { scale, shift } => ops::batchnorm(x, scale, shift),
                        Op::Relu => ops::relu(x),
                        Op::MaxPool { window } => ops::maxpool(x, *window),
                        Op::GlobalAvgPool => ops::global_avgpool(x),
                        Op::Add { other } => {
                            let y = outputs[*other].as_ref().expect("add operand unevaluated");
                            ops::add(x, y)
                        }
                        Op::Linear { weight, bias } => ops::linear(x, weight, bias),
                        Op::Softmax => ops::softmax(x),
                    }
                }
            };
            outputs[id] = Some(value);
        }
        outputs
    }

    /// Runs the network, returning `(angular, lateral)` head outputs.
    ///
    /// # Panics
    ///
    /// Panics if operator shapes are inconsistent (a malformed network).
    pub fn forward(&self, input: &Tensor) -> (Tensor, Tensor) {
        let outputs = self.eval_nodes(input, self.nodes.len() - 1);
        (
            outputs[self.angular_head].clone().expect("angular head"),
            outputs[self.lateral_head].clone().expect("lateral head"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a toy dual-head network: input -> relu -> two linear+softmax
    /// heads.
    fn toy() -> Network {
        let (mut b, input) = NetworkBuilder::new();
        let relu = b.push(Op::Relu, input);
        let w1 = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let fc1 = b.push(
            Op::Linear {
                weight: w1.clone(),
                bias: Tensor::zeros(&[2]),
            },
            relu,
        );
        let s1 = b.push(Op::Softmax, fc1);
        let fc2 = b.push(
            Op::Linear {
                weight: w1,
                bias: Tensor::from_vec(&[2], vec![1.0, 0.0]),
            },
            relu,
        );
        let s2 = b.push(Op::Softmax, fc2);
        b.finish("toy", s1, s2)
    }

    #[test]
    fn forward_produces_two_distributions() {
        let net = toy();
        let x = Tensor::from_vec(&[3], vec![2.0, -1.0, 0.5]);
        let (a, l) = net.forward(&x);
        assert_eq!(a.len(), 2);
        assert_eq!(l.len(), 2);
        assert!((a.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((l.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // ReLU zeroed the -1, so head 1 favors index 0 (value 2 vs 0).
        assert!(a.data()[0] > a.data()[1]);
        // Head 2's bias pushes index 0 further.
        assert!(l.data()[0] > a.data()[0]);
    }

    #[test]
    fn residual_add_through_graph() {
        let (mut b, input) = NetworkBuilder::new();
        let r = b.push(Op::Relu, input);
        let a = b.push(Op::Add { other: input }, r);
        let net = b.finish("res", a, a);
        let x = Tensor::from_vec(&[2], vec![-2.0, 3.0]);
        let (out, _) = net.forward(&x);
        // relu(x) + x = [-2, 6].
        assert_eq!(out.data(), &[-2.0, 6.0]);
    }

    #[test]
    fn param_count_sums_weights() {
        let net = toy();
        // Two linear layers: (2*3 + 2) * 2 = 16.
        assert_eq!(net.param_count(), 16);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_reference_panics() {
        let (mut b, _) = NetworkBuilder::new();
        b.push(Op::Relu, 5);
    }
}
