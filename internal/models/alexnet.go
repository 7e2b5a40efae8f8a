package models

import "swcaffe/internal/core"

func init() {
	registry["alexnet-bn"] = AlexNet
	registry["alexnet-lrn"] = AlexNetLRN
	registry["vgg16"] = VGG16
	registry["vgg19"] = VGG19
}

// AlexNet builds the paper's refined AlexNet: the classic Krizhevsky
// topology with local response normalization replaced by batch
// normalization ("we adopt some refinements to AlexNet without
// affecting the accuracy by changing the LRN to BN", Sec. VI-A).
// The grouped convolutions of the original are widened to full
// connectivity, as all modern Caffe reimplementations do.
func AlexNet(batch int) *ModelSpec { return shared("alexnet-bn", batch, alexNet) }

func alexNet(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 227, 1000)

	t := b.conv("conv1", "data", 96, 11, 4, 0)
	t = b.bn("conv1/bn", t)
	t = b.relu("relu1", t)
	t = b.pool("pool1", t, core.MaxPool, 3, 2, 0, false)

	t = b.conv("conv2", t, 256, 5, 1, 2)
	t = b.bn("conv2/bn", t)
	t = b.relu("relu2", t)
	t = b.pool("pool2", t, core.MaxPool, 3, 2, 0, false)

	t = b.conv("conv3", t, 384, 3, 1, 1)
	t = b.bn("conv3/bn", t)
	t = b.relu("relu3", t)

	t = b.conv("conv4", t, 384, 3, 1, 1)
	t = b.bn("conv4/bn", t)
	t = b.relu("relu4", t)

	t = b.conv("conv5", t, 256, 3, 1, 1)
	t = b.bn("conv5/bn", t)
	t = b.relu("relu5", t)
	t = b.pool("pool5", t, core.MaxPool, 3, 2, 0, false)

	t = b.fc("fc6", t, 4096)
	t = b.relu("relu6", t)
	t = b.dropout("drop6", t, 0.5)
	t = b.fc("fc7", t, 4096)
	t = b.relu("relu7", t)
	t = b.dropout("drop7", t, 0.5)
	t = b.fc("fc8", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}

// AlexNetLRN builds the original AlexNet with LRN layers, kept as the
// ablation partner of the BN refinement.
func AlexNetLRN(batch int) *ModelSpec { return shared("alexnet-lrn", batch, alexNetLRN) }

func alexNetLRN(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 227, 1000)

	t := b.conv("conv1", "data", 96, 11, 4, 0)
	t = b.relu("relu1", t)
	t = b.lrn("norm1", t)
	t = b.pool("pool1", t, core.MaxPool, 3, 2, 0, false)

	t = b.conv("conv2", t, 256, 5, 1, 2)
	t = b.relu("relu2", t)
	t = b.lrn("norm2", t)
	t = b.pool("pool2", t, core.MaxPool, 3, 2, 0, false)

	t = b.conv("conv3", t, 384, 3, 1, 1)
	t = b.relu("relu3", t)
	t = b.conv("conv4", t, 384, 3, 1, 1)
	t = b.relu("relu4", t)
	t = b.conv("conv5", t, 256, 3, 1, 1)
	t = b.relu("relu5", t)
	t = b.pool("pool5", t, core.MaxPool, 3, 2, 0, false)

	t = b.fc("fc6", t, 4096)
	t = b.relu("relu6", t)
	t = b.dropout("drop6", t, 0.5)
	t = b.fc("fc7", t, 4096)
	t = b.relu("relu7", t)
	t = b.dropout("drop7", t, 0.5)
	t = b.fc("fc8", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}

// vggBlock adds n 3x3 same-pad convolutions followed by a 2x2 max
// pool, the repeating unit of the VGG family.
func vggBlock(b *builder, stage string, bottom string, n, channels int) string {
	t := bottom
	for i := 1; i <= n; i++ {
		name := stage + "_" + string(rune('0'+i))
		t = b.conv("conv"+name, t, channels, 3, 1, 1)
		t = b.relu("relu"+name, t)
	}
	return b.pool("pool"+stage, t, core.MaxPool, 2, 2, 0, false)
}

// VGG16 builds VGG-16 (configuration D of Simonyan & Zisserman),
// the paper's Table II / Fig. 9 workload.
func VGG16(batch int) *ModelSpec { return shared("vgg16", batch, vgg16) }

func vgg16(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 224, 1000)
	t := vggBlock(b, "1", "data", 2, 64)
	t = vggBlock(b, "2", t, 2, 128)
	t = vggBlock(b, "3", t, 3, 256)
	t = vggBlock(b, "4", t, 3, 512)
	t = vggBlock(b, "5", t, 3, 512)
	t = b.fc("fc6", t, 4096)
	t = b.relu("relu6", t)
	t = b.dropout("drop6", t, 0.5)
	t = b.fc("fc7", t, 4096)
	t = b.relu("relu7", t)
	t = b.dropout("drop7", t, 0.5)
	t = b.fc("fc8", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}

// VGG19 builds VGG-19 (configuration E).
func VGG19(batch int) *ModelSpec { return shared("vgg19", batch, vgg19) }

func vgg19(name string, batch int) *ModelSpec {
	b := newBuilder(name, batch, 3, 224, 1000)
	t := vggBlock(b, "1", "data", 2, 64)
	t = vggBlock(b, "2", t, 2, 128)
	t = vggBlock(b, "3", t, 4, 256)
	t = vggBlock(b, "4", t, 4, 512)
	t = vggBlock(b, "5", t, 4, 512)
	t = b.fc("fc6", t, 4096)
	t = b.relu("relu6", t)
	t = b.dropout("drop6", t, 0.5)
	t = b.fc("fc7", t, 4096)
	t = b.relu("relu7", t)
	t = b.dropout("drop7", t, 0.5)
	t = b.fc("fc8", t, 1000)
	b.softmaxLoss("loss", t)
	return b.m
}
