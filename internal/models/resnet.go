package models

import (
	"fmt"

	"swcaffe/internal/core"
)

func init() {
	registry["resnet50"] = ResNet50
	registry["googlenet"] = GoogLeNet
}

// bottleneck adds one ResNet bottleneck residual block
// (1x1 reduce → 3x3 → 1x1 expand, each with BN+Scale), with a
// projection shortcut when the geometry changes.
func bottleneck(b *builder, name, bottom string, mid, out, stride int, project bool) string {
	branch2 := b.convBNReLU(name+"/b2a", bottom, mid, 1, stride, 0, true)
	branch2 = b.convBNReLU(name+"/b2b", branch2, mid, 3, 1, 1, true)
	branch2 = b.convBNReLU(name+"/b2c", branch2, out, 1, 1, 0, false)
	shortcut := bottom
	if project {
		shortcut = b.convBNReLU(name+"/b1", bottom, out, 1, stride, 0, false)
	}
	sum := b.eltsum(name+"/sum", branch2, shortcut)
	return b.relu(name+"/relu", sum)
}

// ResNet50 builds ResNet-50 (He et al.), the paper's scalability
// workload (Fig. 10: sub-mini-batch 32 and 64). Parameter payload
// ≈ 97.7 MB as quoted in Sec. VI-C.
func ResNet50(batch int) *ModelSpec { return shared("resnet50", batch, resNet50) }

func resNet50(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 224, 1000)
	t := b.convBNReLU("conv1", "data", 64, 7, 2, 3, true)
	t = b.pool("pool1", t, core.MaxPool, 3, 2, 0, false)

	stages := []struct {
		name   string
		blocks int
		mid    int
		out    int
		stride int
	}{
		{"res2", 3, 64, 256, 1},
		{"res3", 4, 128, 512, 2},
		{"res4", 6, 256, 1024, 2},
		{"res5", 3, 512, 2048, 2},
	}
	for _, st := range stages {
		for i := 0; i < st.blocks; i++ {
			stride := 1
			if i == 0 {
				stride = st.stride
			}
			t = bottleneck(b, fmt.Sprintf("%s%c", st.name, 'a'+i), t, st.mid, st.out, stride, i == 0)
		}
	}
	t = b.pool("pool5", t, core.AvgPool, 7, 1, 0, true)
	t = b.fc("fc1000", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}

// inception adds one GoogLeNet inception module with the four standard
// branches (1x1, 1x1→3x3, 1x1→5x5, pool→1x1).
func inception(b *builder, name, bottom string, c1, r3, c3, r5, c5, pp int) string {
	b1 := b.conv(name+"/1x1", bottom, c1, 1, 1, 0)
	b1 = b.relu(name+"/relu_1x1", b1)

	b2 := b.conv(name+"/3x3_reduce", bottom, r3, 1, 1, 0)
	b2 = b.relu(name+"/relu_3x3_reduce", b2)
	b2 = b.conv(name+"/3x3", b2, c3, 3, 1, 1)
	b2 = b.relu(name+"/relu_3x3", b2)

	b3 := b.conv(name+"/5x5_reduce", bottom, r5, 1, 1, 0)
	b3 = b.relu(name+"/relu_5x5_reduce", b3)
	b3 = b.conv(name+"/5x5", b3, c5, 5, 1, 2)
	b3 = b.relu(name+"/relu_5x5", b3)

	b4 := b.pool(name+"/pool", bottom, core.MaxPool, 3, 1, 1, false)
	b4 = b.conv(name+"/pool_proj", b4, pp, 1, 1, 0)
	b4 = b.relu(name+"/relu_pool_proj", b4)

	return b.concat(name+"/output", b1, b2, b3, b4)
}

// GoogLeNet builds GoogLeNet v1 (Szegedy et al.) with its nine
// inception modules; the auxiliary classifier heads are omitted (they
// are training-schedule aids disabled in throughput measurements).
// Its many sub-64-channel branches are why the paper measures only
// 23% of K40m throughput on SW26010 (Sec. VI-B).
func GoogLeNet(batch int) *ModelSpec { return shared("googlenet", batch, googLeNet) }

func googLeNet(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 224, 1000)
	t := b.conv("conv1/7x7_s2", "data", 64, 7, 2, 3)
	t = b.relu("conv1/relu_7x7", t)
	t = b.pool("pool1/3x3_s2", t, core.MaxPool, 3, 2, 0, false)
	t = b.lrn("pool1/norm1", t)
	t = b.conv("conv2/3x3_reduce", t, 64, 1, 1, 0)
	t = b.relu("conv2/relu_3x3_reduce", t)
	t = b.conv("conv2/3x3", t, 192, 3, 1, 1)
	t = b.relu("conv2/relu_3x3", t)
	t = b.lrn("conv2/norm2", t)
	t = b.pool("pool2/3x3_s2", t, core.MaxPool, 3, 2, 0, false)

	t = inception(b, "inception_3a", t, 64, 96, 128, 16, 32, 32)
	t = inception(b, "inception_3b", t, 128, 128, 192, 32, 96, 64)
	t = b.pool("pool3/3x3_s2", t, core.MaxPool, 3, 2, 0, false)

	t = inception(b, "inception_4a", t, 192, 96, 208, 16, 48, 64)
	t = inception(b, "inception_4b", t, 160, 112, 224, 24, 64, 64)
	t = inception(b, "inception_4c", t, 128, 128, 256, 24, 64, 64)
	t = inception(b, "inception_4d", t, 112, 144, 288, 32, 64, 64)
	t = inception(b, "inception_4e", t, 256, 160, 320, 32, 128, 128)
	t = b.pool("pool4/3x3_s2", t, core.MaxPool, 3, 2, 0, false)

	t = inception(b, "inception_5a", t, 256, 160, 320, 32, 128, 128)
	t = inception(b, "inception_5b", t, 384, 192, 384, 48, 128, 128)

	t = b.pool("pool5/7x7_s1", t, core.AvgPool, 7, 1, 0, true)
	t = b.dropout("pool5/drop", t, 0.4)
	t = b.fc("loss3/classifier", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}

// ByName returns a registered model constructor; like the exported
// ones it hands out the shared spec for (name, batch).
func ByName(name string) (func(batch int) *ModelSpec, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names lists the registered models.
func Names() []string {
	return []string{"alexnet-bn", "alexnet-lrn", "vgg16", "vgg19", "resnet50", "googlenet"}
}
